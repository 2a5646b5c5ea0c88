//! The one recovery walk of the pointer-linked structures — crit-bit
//! tree, R-tree, B-tree and hash map — made incremental across the crash
//! images of one run.
//!
//! # The walk
//!
//! Each structure is a [`Shape`]: a per-node visit that reads a node,
//! checks it locally and lists its children, plus the edge check a parent
//! makes of each child. [`Walker`] walks the shape depth first from its
//! root slots in the order a recursive walk would, so the first error it
//! reports is the one a recursive walk would report.
//!
//! A crash image is untrusted input: a torn or hostile image can point
//! many child slots at one node, or a node back at its ancestor. A walk
//! bounded by depth alone then revisits shared subtrees exponentially —
//! 20 levels of 8 children all naming the next node is 8^20 leaves — and
//! a walk bounded per hash bucket revisits one shared chain from every
//! bucket. The walk therefore fails once it has visited more nodes than
//! the persistent heap can hold, which no structure does. Sharing itself
//! is not corruption: a split rewrites a full node's entries in place
//! before the count store that shrinks it, so a crash in between leaves a
//! child named twice. The sweeps accept that state, counting the child
//! twice, and so does the budget.
//!
//! # The memo
//!
//! A crash sweep checks image after image of one run, and each differs
//! from the last in a few blocks. Once a check has verified, a walker
//! keeps a memo of the last image it checked: for each node its address,
//! the bytes its visit read, its parents, and its subtree's summary
//! (leaves, visits and height). The memo holds `Arc` clones of the pages
//! those nodes lie on ([`PinnedPage`]). A pinned page can never change —
//! its next writer copies it first — so a new image holding the same page
//! pointer holds the same bytes. Only pages whose pointer moved are
//! compared, block by block (64 B). Nodes on a changed block, and their
//! ancestors through the stored parent links, are walked again; every
//! clean child contributes its summary unread. A crash sweep builds each
//! image on the last one, so a page nothing wrote keeps its pointer, and
//! the image names the blocks it rebuilt: when it is the next image of
//! the one the pins hold, only the pinned pages holding those blocks are
//! compared, and only those blocks ([`NvmImage::changes_since`]).
//!
//! Root slots longer than one block — the hash map's bucket array — are
//! memoized per block: each block of slots is a memo group between the
//! root and the top-level nodes, so a changed bucket lists its own
//! group's slots again, and the root sums the groups' summaries. A group
//! is no node to the rules: the walk order, the root slot an error is
//! reported under ([`Shape::under`]), the node budget and the depths are
//! those of the slots listed one by one.
//!
//! Parent links are only ever added, never dropped, so a stale link can
//! make a node walk again needlessly but can never leave a changed
//! descendant unseen. A memo grown to twice its built size is rebuilt.
//!
//! The verdicts stay exactly the full walk's. A walked parent checks each
//! clean child's key ([`Shape::edge`]), a clean child's depth plus height
//! must stay within the depth limit, and the visit counts are summed
//! against the budget. An inconsistency found at a walked node is the one
//! the full walk reports first: the nodes before it in walk order were
//! walked and passed, or lie in clean subtrees that hold as they did in
//! an earlier image and kept their depth and budget.
//!
//! A walk that stops at an inconsistency moves the memo to its image as
//! well. A node whose subtree it summed keeps its new summary. The nodes
//! it entered but left open — the failing node's ancestors on its path,
//! up to the root slots — are stale, and so is every changed node it never
//! reached; a stale node is walked again whenever a walk reaches it. Every
//! other node lies on blocks the image did not change, above none that
//! did, so its summary holds. The moved pages are pinned as the image has
//! them. A run of failing images thus costs what changed between them,
//! not what changed since the last image that verified.
//!
//! Whatever the memo alone cannot decide — a clean subtree past the depth
//! limit or the budget, a node reached from itself, a count overflow —
//! discards the attempt, keeps the memo as it was, and walks again with
//! no memo. The full walk is this walk with an empty memo, and a walker
//! builds a memo only once a check verified, so a one-off check walks as
//! the full walk does.
//!
//! Pinning has a cost: the live media copies a pinned page on its next
//! write, a copy it would otherwise skip once the image is dropped. The
//! memo is flat — vectors and two hash maps, with no allocation per node
//! — and grows by a quarter at a time.

use bbb_mem::{ImageId, ImageReader, NvmImage, PinnedPage, PAGE_BYTES};
use bbb_sim::{Addr, AddressMap, FxHashMap, BLOCK_BYTES};

/// The error of a walk that visited more nodes than the heap holds.
const BUDGET_SPENT: &str =
    "more nodes reachable than the persistent heap holds: shared subtrees or a cycle";

/// No index: the end of a list, or a node the current walk is not on.
const NIL: u32 = u32::MAX;
/// [`Node::dirty`] of a node whose summary is valid.
const CLEAN: u32 = 0;
/// [`Node::dirty`] of a node whose summary no longer holds.
const STALE: u32 = u32::MAX;
/// The bit of [`Node::walked`] set once the walk summed the subtree;
/// checks are numbered below it.
const DONE: u32 = 1 << 31;

const PAGE: u64 = PAGE_BYTES as u64;
const BLOCK: u64 = BLOCK_BYTES as u64;
const BLOCKS: usize = PAGE_BYTES / BLOCK_BYTES;

/// What one node's visit found.
pub(crate) struct Local {
    /// Bytes from the node's address that the visit read.
    pub(crate) span: u64,
    /// Elements the node holds itself.
    pub(crate) leaves: u64,
    /// What [`Shape::edge`] checks this node against, as its parent's
    /// and as its children's.
    pub(crate) key: u32,
}

/// One structure's recovery rules, node by node (see the module docs).
pub(crate) trait Shape {
    /// Bytes of the smallest node: the walk's node budget is the heap's
    /// bytes over this.
    const MIN_NODE_BYTES: u64;
    /// Deepest node a walk accepts (the root's children are at depth 0).
    const MAX_DEPTH: u32 = u32::MAX;
    /// The error of a node deeper than [`Shape::MAX_DEPTH`].
    const TOO_DEEP: &'static str = "";
    /// True when a node spends its budget before its visit (the trees);
    /// false when only after its local checks pass (hash chains).
    const BUDGET_FIRST: bool = true;

    /// The root slots.
    fn root(&self) -> Root;

    /// Reads and checks the node at `node`, listing its children in
    /// `kids`. An error may follow some listed children: those are
    /// walked before the error is reported, as a recursive walk
    /// interleaving checks and descents would find them.
    ///
    /// # Errors
    ///
    /// The node's first local inconsistency.
    fn visit(
        &self,
        image: &mut ImageReader<'_>,
        node: Addr,
        kids: &mut Vec<Addr>,
    ) -> Result<Local, String>;

    /// The error of a child pointer that names no possible node.
    fn malformed(&self, pointer: Addr) -> String;

    /// Checks a child's key against its parent's.
    ///
    /// # Errors
    ///
    /// The edge's inconsistency.
    fn edge(&self, _parent: u32, _child: Addr, _key: u32) -> Result<(), String> {
        Ok(())
    }

    /// True for a pointer that ends a chain rather than naming a node.
    fn is_null(&self, _pointer: Addr) -> bool {
        false
    }

    /// An error found under the node root slot `slot` names.
    fn under(&self, _slot: usize, err: String) -> String {
        err
    }
}

/// A structure's root slots: `slots` 8-byte pointers from `addr`, each
/// naming a top-level node unless 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Root {
    pub(crate) addr: Addr,
    pub(crate) slots: u64,
    /// What [`Shape::edge`] checks the top-level nodes against.
    pub(crate) key: u32,
}

impl Root {
    /// The memo groups of the slots: none when they lie in one block,
    /// else one per block they touch.
    fn groups(&self) -> u32 {
        let (first, last) = (self.addr / BLOCK, (self.addr + 8 * self.slots - 1) / BLOCK);
        if self.slots == 0 || first == last {
            0
        } else {
            u32::try_from(last - first + 1).expect("root slots fit the address space")
        }
    }

    /// The slots of group `g`: the index of its first and the bytes
    /// `from..to` it spans.
    fn group(&self, g: u32) -> (u32, Addr, Addr) {
        let block = (self.addr / BLOCK + u64::from(g)) * BLOCK;
        let (from, to) = (
            block.max(self.addr),
            (block + BLOCK).min(self.addr + 8 * self.slots),
        );
        ((((from - self.addr) / 8) as u32), from, to)
    }
}

/// Lists the pointers in the root slots `from..to` in `kids`.
fn list_slots(image: &mut ImageReader<'_>, from: Addr, to: Addr, kids: &mut Vec<Addr>) {
    kids.extend((from..to).step_by(8).map(|slot| image.read_u64(slot)));
}

/// What a subtree contributes to its parent. A count past `u32::MAX`
/// fails a walk with a memo, which then walks again without one.
#[derive(Debug, Clone, Copy, Default)]
struct Summary {
    leaves: u32,
    /// Nodes visited, a shared child once per slot naming it.
    visits: u32,
    /// Depth of the deepest node below, relative to this one.
    height: u32,
}

impl Summary {
    /// Adds a child's subtree, one level `below` this node or, for a
    /// memo group's top-level node, on its level; `None` on overflow.
    fn add(&mut self, child: Summary, below: bool) -> Option<()> {
        self.leaves = self.leaves.checked_add(child.leaves)?;
        self.visits = self.visits.checked_add(child.visits)?;
        self.height = self.height.max(child.height.checked_add(u32::from(below))?);
        Some(())
    }
}

/// One memoized node. Node 0 is the root slots, and nodes `1..=g` the
/// root's `g` memo groups.
#[derive(Debug)]
struct Node {
    addr: Addr,
    sum: Summary,
    key: u32,
    span: u32,
    /// Head of this node's parent list in [`Memo::parents`].
    parents: u32,
    /// [`CLEAN`], [`STALE`], or the check that found it changed.
    dirty: u32,
    /// The last check whose walk entered this node, with [`DONE`] once
    /// that walk summed its subtree.
    walked: u32,
}

impl Node {
    fn new(addr: Addr) -> Self {
        Self {
            addr,
            sum: Summary::default(),
            key: 0,
            span: 0,
            parents: NIL,
            dirty: STALE,
            walked: 0,
        }
    }
}

/// An entry of a singly linked list of node indices.
#[derive(Debug, Clone, Copy)]
struct Link {
    node: u32,
    next: u32,
}

/// A page the memo's nodes lie on, as the last image checked had it.
#[derive(Debug)]
struct Pinned {
    pin: PinnedPage,
    /// Per 64-byte block of the page, the head of its node list in
    /// [`Memo::on_block`].
    blocks: [u32; BLOCKS],
}

/// Pushes `x` onto `v`, growing it by a quarter rather than doubling it,
/// and returns its index.
fn push<T>(v: &mut Vec<T>, x: T) -> u32 {
    if v.len() == v.capacity() {
        v.reserve_exact(v.len() / 4 + 16);
    }
    v.push(x);
    (v.len() - 1) as u32
}

/// The walk of the last image checked (see the module docs).
#[derive(Debug, Default)]
struct Memo {
    nodes: Vec<Node>,
    /// Every node but the root slots, by its 8-byte slot in the heap.
    index: FxHashMap<u32, u32>,
    parents: Vec<Link>,
    pages: FxHashMap<Addr, Pinned>,
    on_block: Vec<Link>,
    /// Entries right after the walk that built the memo; a memo grown to
    /// twice that (stale links, dead nodes) is rebuilt.
    built: usize,
    /// The current check, counted from 1.
    generation: u32,
    /// The image the pins hold, when a basis built it: the next image of
    /// that basis names the blocks that can have changed since.
    image: Option<ImageId>,
}

impl Memo {
    fn entries(&self) -> usize {
        self.nodes.len() + self.parents.len() + self.on_block.len()
    }

    /// Lists `node` on the blocks of its span past its first `from`
    /// bytes, which are listed already, pinning pages new to the memo as
    /// `image` has them.
    fn link_blocks(&mut self, node: u32, from: u32, image: &NvmImage) {
        let n = &self.nodes[node as usize];
        if n.span <= from {
            return;
        }
        let first = match u64::from(from) {
            0 => n.addr / BLOCK,
            from => (n.addr + from - 1) / BLOCK + 1,
        };
        for block in first..=(n.addr + u64::from(n.span) - 1) / BLOCK {
            let base = block * BLOCK / PAGE * PAGE;
            let p = self.pages.entry(base).or_insert_with(|| Pinned {
                pin: image.pin(base),
                blocks: [NIL; BLOCKS],
            });
            let head = &mut p.blocks[(block % BLOCKS as u64) as usize];
            *head = push(&mut self.on_block, Link { node, next: *head });
        }
    }

    /// Links `child` to `parent` unless it already is.
    fn link_parent(&mut self, child: u32, parent: u32) {
        let head = self.nodes[child as usize].parents;
        let mut l = head;
        while l != NIL {
            let link = self.parents[l as usize];
            if link.node == parent {
                return;
            }
            l = link.next;
        }
        let link = Link {
            node: parent,
            next: head,
        };
        self.nodes[child as usize].parents = push(&mut self.parents, link);
    }
}

/// Marks `node` and, through the parent links, every ancestor dirty in
/// check `generation`, listing each in `dirty`.
fn mark(
    nodes: &mut [Node],
    parents: &[Link],
    generation: u32,
    node: u32,
    stack: &mut Vec<u32>,
    dirty: &mut Vec<u32>,
) {
    stack.push(node);
    while let Some(i) = stack.pop() {
        let n = &mut nodes[i as usize];
        if n.dirty == generation || n.dirty == STALE {
            continue;
        }
        n.dirty = generation;
        dirty.push(i);
        let mut l = n.parents;
        while l != NIL {
            let link = parents[l as usize];
            stack.push(link.node);
            l = link.next;
        }
    }
}

/// Why a walk ended without a count.
#[derive(Debug)]
enum Stop {
    /// The first inconsistency, exactly as the full walk finds it.
    Corrupt(String),
    /// Something only the memo cannot decide: walk again without it.
    Retry,
}

/// What a [`Frame`] lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A node's children.
    Node,
    /// The root slots.
    Root,
    /// The root's memo groups, not through `Workspace::kids`.
    Groups,
    /// One memo group's root slots.
    Group,
}

/// A node the walk is on.
#[derive(Debug)]
struct Frame {
    /// Its memo index (unused by a walk without a memo).
    node: u32,
    kind: Kind,
    /// Depth of its children.
    depth: u32,
    key: u32,
    /// For a node, the root slot it descends from; for root slots, the
    /// index of the slot its first child is read from.
    top: u32,
    /// Its children: `Workspace::kids[start..end]`, the next at `next`.
    start: u32,
    next: u32,
    end: u32,
    /// Its own summary plus its summed children's (with a memo only).
    sum: Summary,
    /// A local error to report once the listed children are walked.
    err: Option<String>,
}

impl Frame {
    /// A frame of `kind` over the children `kids[start..]` listed so far.
    fn new(
        kind: Kind,
        node: u32,
        depth: u32,
        key: u32,
        top: u32,
        start: usize,
        end: usize,
    ) -> Self {
        Self {
            node,
            kind,
            depth,
            key,
            top,
            start: start as u32,
            next: start as u32,
            end: end as u32,
            sum: Summary::default(),
            err: None,
        }
    }
}

/// A memo node's record from before the current walk entered it.
#[derive(Debug)]
struct Undo {
    node: u32,
    key: u32,
    sum: Summary,
    span: u32,
}

/// Per-check working space.
#[derive(Debug, Default)]
struct Workspace {
    frames: Vec<Frame>,
    kids: Vec<Addr>,
    /// Memo nodes the walk entered, and the records it overwrote.
    walked: Vec<u32>,
    undo: Vec<Undo>,
    /// `(child, parent)` memo indices of the edges the walk crossed.
    edges: Vec<(u32, u32)>,
    /// Memo nodes on a changed block, or above one.
    dirty: Vec<u32>,
    /// Pinned pages whose pointer moved.
    moved: Vec<Addr>,
    stack: Vec<u32>,
}

/// The recovery walk of one structure, with its memo.
#[derive(Debug)]
pub(crate) struct Walker<S> {
    shape: S,
    map: AddressMap,
    budget: u64,
    memo: Memo,
    work: Workspace,
    /// True once a check verified. A memo is built only after one did,
    /// so a walker checked once, or one whose images have all failed,
    /// walks exactly as the full walk does.
    verified: bool,
}

/// True for a memo node whose summary holds in check `generation`.
fn clean(n: &Node, generation: u32) -> bool {
    n.dirty != STALE && n.dirty != generation
}

impl<S: Shape> Walker<S> {
    /// A walker of `shape` in `map`'s persistent heap, with no memo.
    pub(crate) fn new(shape: S, map: &AddressMap) -> Self {
        Self {
            shape,
            map: map.clone(),
            budget: (map.persistent_end() - map.persistent_base()) / S::MIN_NODE_BYTES,
            memo: Memo::default(),
            work: Workspace::default(),
            verified: false,
        }
    }

    /// Verifies `image`, returning the elements recovered.
    ///
    /// # Errors
    ///
    /// The first inconsistency a full walk finds.
    pub(crate) fn check(&mut self, image: &NvmImage) -> Result<u64, String> {
        let verdict = self.verify(image);
        self.verified |= verdict.is_ok();
        verdict
    }

    /// [`Walker::check`], through the memo when there is one.
    fn verify(&mut self, image: &NvmImage) -> Result<u64, String> {
        let m = &mut self.memo;
        if m.entries() > 2 * m.built + 64 || m.generation == DONE - 1 {
            *m = Memo::default();
        }
        if m.nodes.is_empty() && !self.verified {
            return self.full_walk(image);
        }
        m.generation += 1;
        let s = &mut self.work;
        for list in [&mut s.walked, &mut s.dirty, &mut s.stack] {
            list.clear();
        }
        s.undo.clear();
        s.edges.clear();
        s.moved.clear();
        let kept = m.nodes.len();
        if kept > 0 {
            self.diff(image);
            let root = &self.memo.nodes[0];
            if clean(root, self.memo.generation) {
                let leaves = u64::from(root.sum.leaves);
                self.commit(image, kept);
                return Ok(leaves);
            }
        }
        let verdict = match self.walk(image, true) {
            Ok(leaves) => Ok(leaves),
            Err(Stop::Corrupt(err)) => Err(err),
            Err(Stop::Retry) => {
                self.forget(kept);
                let full = self.full_walk(image);
                if full.is_ok() {
                    // A memo the full walk contradicts is not kept.
                    self.memo = Memo::default();
                }
                return full;
            }
        };
        // A failed walk moves the memo to this image too: what it summed
        // holds, and what it left open is stale (see `commit`).
        self.commit(image, kept);
        if kept == 0 {
            // Only a few nodes are walked per check from now on.
            self.memo.built = self.memo.entries();
            self.work = Workspace::default();
        }
        verdict
    }

    /// Marks the memo nodes on blocks `image` changed, and their
    /// ancestors, dirty. When `image` names the blocks that can differ
    /// from the pinned one ([`NvmImage::changes_since`]), only those are
    /// compared; otherwise every pinned page is.
    fn diff(&mut self, image: &NvmImage) {
        let s = &mut self.work;
        let Memo {
            nodes,
            parents,
            pages,
            on_block,
            generation,
            image: pinned_image,
            ..
        } = &mut self.memo;
        let mut diff_page = |base: Addr, pinned: &Pinned, mask: u64| {
            let Some(mut changed) = pinned.pin.changed_blocks_in(image, base, mask) else {
                return;
            };
            s.moved.push(base);
            while changed != 0 {
                let mut l = pinned.blocks[changed.trailing_zeros() as usize];
                changed &= changed - 1;
                while l != NIL {
                    let link = on_block[l as usize];
                    l = link.next;
                    let (stack, dirty) = (&mut s.stack, &mut s.dirty);
                    mark(nodes, parents, *generation, link.node, stack, dirty);
                }
            }
        };
        match image.changes_since(*pinned_image) {
            Some(rebuilt) => {
                for &(base, mask) in rebuilt {
                    if let Some(pinned) = pages.get(&base) {
                        diff_page(base, pinned, mask);
                    }
                }
            }
            None => {
                for (&base, pinned) in pages.iter() {
                    diff_page(base, pinned, !0);
                }
            }
        }
    }

    /// Makes the walk of `image` the memo, whether it verified or stopped
    /// at an inconsistency. Nodes past the first `kept` are new to it.
    ///
    /// A node whose subtree the walk summed keeps its new summary. One the
    /// walk entered but left open — the failing node and its ancestors —
    /// is stale, and so is a changed node the walk never reached: it is
    /// unreachable now, or lies past the inconsistency. Every other node
    /// lies on blocks this image did not change, above none that did, so
    /// its summary holds; the moved pages are pinned as `image` has them.
    fn commit(&mut self, image: &NvmImage, kept: usize) {
        let (s, memo) = (&self.work, &mut self.memo);
        for &i in &s.walked {
            let n = &mut memo.nodes[i as usize];
            n.dirty = if n.walked & DONE != 0 { CLEAN } else { STALE };
            if i as usize >= kept {
                memo.link_blocks(i, 0, image);
            }
        }
        for u in &s.undo {
            memo.link_blocks(u.node, u.span, image);
        }
        for &(child, parent) in &s.edges {
            memo.link_parent(child, parent);
        }
        for &i in &s.dirty {
            let n = &mut memo.nodes[i as usize];
            if n.dirty == memo.generation {
                n.dirty = STALE;
            }
        }
        for &base in &s.moved {
            if let Some(p) = memo.pages.get_mut(&base) {
                p.pin = image.pin(base);
            }
        }
        memo.image = image.id();
    }

    /// Drops an undecided walk's records: restores the memo nodes it
    /// overwrote and removes those it added past the first `kept`.
    fn forget(&mut self, kept: usize) {
        let memo = &mut self.memo;
        for u in self.work.undo.drain(..).rev() {
            let n = &mut memo.nodes[u.node as usize];
            (n.key, n.sum, n.span) = (u.key, u.sum, u.span);
        }
        let base = self.map.persistent_base();
        for n in memo.nodes.drain(kept..) {
            if let Some(slot) = slot(base, n.addr) {
                memo.index.remove(&slot);
            }
        }
    }

    /// The full walk: [`Walker::walk`] without the memo.
    fn full_walk(&mut self, image: &NvmImage) -> Result<u64, String> {
        self.walk(image, false).map_err(|stop| match stop {
            Stop::Corrupt(err) => err,
            Stop::Retry => unreachable!("a walk without a memo always decides"),
        })
    }

    /// Walks `image` depth first from the root slots. With `memo`, clean
    /// memo nodes contribute their summaries unwalked, every walked
    /// node's record is overwritten, and root slots spanning more than
    /// one block are walked group by group: one memo node per block,
    /// which neither counts as a visit nor adds a level.
    fn walk(&mut self, image: &NvmImage, memo: bool) -> Result<u64, Stop> {
        let Self {
            shape,
            map,
            budget,
            memo: m,
            work: s,
            ..
        } = self;
        let (generation, base, kept) = (m.generation, map.persistent_base(), m.nodes.len());
        let mut image = image.reader();
        s.frames.clear();
        s.kids.clear();
        let root = shape.root();
        let groups = if memo { root.groups() } else { 0 };
        if memo {
            if kept == 0 {
                push(&mut m.nodes, Node::new(root.addr));
                for g in 0..groups {
                    push(&mut m.nodes, Node::new(root.group(g).1));
                }
            }
            let local = Local {
                span: if groups > 0 { 0 } else { 8 * root.slots },
                leaves: 0,
                key: root.key,
            };
            enter(m, s, 0, &local, kept).ok_or(Stop::Retry)?;
        }
        if groups > 0 {
            let groups = groups as usize;
            s.frames
                .push(Frame::new(Kind::Groups, 0, 0, root.key, 0, 0, groups));
        } else {
            list_slots(
                &mut image,
                root.addr,
                root.addr + 8 * root.slots,
                &mut s.kids,
            );
            let end = s.kids.len();
            s.frames
                .push(Frame::new(Kind::Root, 0, 0, root.key, 0, 0, end));
        }
        let (mut leaves, mut visits) = (0u64, 0u64);
        while let Some(f) = s.frames.last_mut() {
            if f.next == f.end {
                let f = s.frames.pop().expect("a frame is on top");
                if f.kind != Kind::Groups {
                    s.kids.truncate(f.start as usize);
                }
                if let Some(err) = f.err {
                    return Err(Stop::Corrupt(shape.under(f.top as usize, err)));
                }
                if memo {
                    let n = &mut m.nodes[f.node as usize];
                    (n.sum, n.walked) = (f.sum, generation | DONE);
                    if let Some(parent) = s.frames.last_mut() {
                        let below = parent.kind != Kind::Group;
                        parent.sum.add(f.sum, below).ok_or(Stop::Retry)?;
                        s.edges.push((f.node, parent.node));
                    }
                }
                continue;
            }
            if f.kind == Kind::Groups {
                let (g, depth, key) = (f.next, f.depth, f.key);
                f.next += 1;
                let node = 1 + g;
                let n = &m.nodes[node as usize];
                if clean(n, generation) {
                    let sum = n.sum;
                    leaves += u64::from(sum.leaves);
                    visits += u64::from(sum.visits);
                    if visits > *budget
                        || u64::from(depth) + u64::from(sum.height) > u64::from(S::MAX_DEPTH)
                    {
                        return Err(Stop::Retry);
                    }
                    f.sum.add(sum, true).ok_or(Stop::Retry)?;
                    s.edges.push((node, 0));
                    continue;
                }
                let (first, from, to) = root.group(g);
                let local = Local {
                    span: to - from,
                    leaves: 0,
                    key,
                };
                enter(m, s, node, &local, kept).ok_or(Stop::Retry)?;
                let start = s.kids.len();
                list_slots(&mut image, from, to, &mut s.kids);
                let end = s.kids.len();
                s.frames
                    .push(Frame::new(Kind::Group, node, depth, key, first, start, end));
                continue;
            }
            let c = s.kids[f.next as usize];
            let slots = f.kind != Kind::Node;
            let top = if slots {
                f.top + f.next - f.start
            } else {
                f.top
            };
            f.next += 1;
            // An empty root slot names no node.
            if shape.is_null(c) || (slots && c == 0) {
                continue;
            }
            let (depth, parent_key, parent) = (f.depth, f.key, f.node);
            let below = f.kind != Kind::Group;
            if !memo && f.next == f.end && f.err.is_none() {
                // The parent's last child: nothing is left to do in the
                // parent, so a chain walks in constant space.
                let f = s.frames.pop().expect("a frame is on top");
                s.kids.truncate(f.start as usize);
            }
            let wrap = |err: String| Stop::Corrupt(shape.under(top as usize, err));
            if depth > S::MAX_DEPTH {
                return Err(wrap(S::TOO_DEEP.to_owned()));
            }
            if !map.is_persistent(c) || !c.is_multiple_of(8) {
                return Err(wrap(shape.malformed(c)));
            }
            let mut node = NIL;
            if memo {
                let key = slot(base, c).ok_or(Stop::Retry)?;
                node = *m
                    .index
                    .entry(key)
                    .or_insert_with(|| push(&mut m.nodes, Node::new(c)));
                let n = &m.nodes[node as usize];
                let known = if n.walked & !DONE == generation {
                    // Reached again: a shared child, or a cycle.
                    (n.walked & DONE != 0).then_some((n.sum, n.key))
                } else if clean(n, generation) {
                    Some((n.sum, n.key))
                } else {
                    None
                };
                if n.walked == generation {
                    return Err(Stop::Retry);
                }
                if let Some((sum, key)) = known {
                    leaves += u64::from(sum.leaves);
                    visits += u64::from(sum.visits);
                    if visits > *budget
                        || u64::from(depth) + u64::from(sum.height) > u64::from(S::MAX_DEPTH)
                    {
                        return Err(Stop::Retry);
                    }
                    shape.edge(parent_key, c, key).map_err(wrap)?;
                    let parent_frame = s.frames.last_mut().expect("a memo walk keeps parents");
                    parent_frame.sum.add(sum, below).ok_or(Stop::Retry)?;
                    s.edges.push((node, parent));
                    continue;
                }
            }
            if S::BUDGET_FIRST {
                visits += 1;
                if visits > *budget {
                    return Err(wrap(BUDGET_SPENT.to_owned()));
                }
            }
            let start = s.kids.len();
            let local = match shape.visit(&mut image, c, &mut s.kids) {
                Ok(local) => local,
                Err(err) if s.kids.len() > start => {
                    let end = s.kids.len();
                    let depth = depth.saturating_add(1);
                    let mut f = Frame::new(Kind::Node, node, depth, 0, top, start, end);
                    f.err = Some(err);
                    s.frames.push(f);
                    continue;
                }
                Err(err) => return Err(wrap(err)),
            };
            if !S::BUDGET_FIRST {
                visits += 1;
                if visits > *budget {
                    return Err(wrap(BUDGET_SPENT.to_owned()));
                }
            }
            shape.edge(parent_key, c, local.key).map_err(wrap)?;
            leaves += local.leaves;
            let end = s.kids.len();
            let mut f = Frame::new(
                Kind::Node,
                node,
                depth.saturating_add(1),
                local.key,
                top,
                start,
                end,
            );
            if memo {
                enter(m, s, node, &local, kept).ok_or(Stop::Retry)?;
                f.sum = Summary {
                    leaves: u32::try_from(local.leaves).map_err(|_| Stop::Retry)?,
                    visits: 1,
                    height: 0,
                };
            }
            s.frames.push(f);
        }
        Ok(leaves)
    }
}

/// The index key of the node at `addr`, a persistent-heap pointer: its
/// 8-byte slot from `base`. `None` past 32 GiB of heap.
fn slot(base: Addr, addr: Addr) -> Option<u32> {
    u32::try_from((addr - base) / 8).ok()
}

/// Records that the current walk entered memo node `node`, whose visit
/// found `local`, saving the record it overwrites when the node predates
/// the walk (one of the first `kept`). `None` when the span overflows.
fn enter(m: &mut Memo, s: &mut Workspace, node: u32, local: &Local, kept: usize) -> Option<()> {
    let span = u32::try_from(local.span).ok()?;
    let n = &mut m.nodes[node as usize];
    if (node as usize) < kept {
        s.undo.push(Undo {
            node,
            key: n.key,
            sum: n.sum,
            span: n.span,
        });
    }
    (n.key, n.span, n.walked) = (local.key, span, m.generation);
    s.walked.push(node);
    Some(())
}
