//! The bound on the tree and hash-map recovery oracles' pointer walks.
//!
//! A crash image is untrusted input: a torn or hostile image can point
//! many child slots at one node, or a node back at its ancestor. A walk
//! bounded by depth alone then revisits shared subtrees exponentially —
//! 20 levels of 8 children all naming the next node is 8^20 leaves — and
//! a walk bounded per hash bucket revisits one shared chain from every
//! bucket. [`NodeBudget`] fails a walk once it has visited more nodes
//! than the persistent heap can hold, which no structure does.
//!
//! Sharing itself is not corruption: a split rewrites a full node's
//! entries in place before the count store that shrinks it, so a crash
//! in between leaves a child named twice. The sweeps accept that state,
//! and so does the budget.

use bbb_sim::AddressMap;

/// The node visits one recovery walk has left.
pub(crate) struct NodeBudget(u64);

impl NodeBudget {
    /// A walk over nodes of at least `node_bytes` bytes each, in `map`'s
    /// persistent heap.
    pub(crate) fn new(map: &AddressMap, node_bytes: u64) -> Self {
        Self((map.persistent_end() - map.persistent_base()) / node_bytes)
    }

    /// Spends one visit: an error once the walk has visited more nodes
    /// than the heap holds (shared subtrees or a cycle).
    pub(crate) fn visit(&mut self) -> Result<(), String> {
        self.0 = self.0.checked_sub(1).ok_or_else(|| {
            "more nodes reachable than the persistent heap holds: \
             shared subtrees or a cycle"
                .to_owned()
        })?;
        Ok(())
    }
}
