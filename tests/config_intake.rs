//! Config intake: a configuration `System::new` cannot build must come
//! back as `SystemError::InvalidConfig`, never as a constructor panic.
//!
//! Each case below passed `SimConfig::validate()` before the check that
//! now rejects it, and then panicked inside a component constructor: the
//! write-pending queue, the NVMM channel scheduler, or a cache array
//! whose set count is not a power of two.

use bbb::core::{PersistencyMode, System, SystemError};
use bbb::sim::SimConfig;

fn rejected(name: &str, cfg: SimConfig) {
    assert!(cfg.validate().is_err(), "{name}: validate() accepted it");
    for mode in PersistencyMode::ALL {
        match System::new(cfg.clone(), mode) {
            Err(SystemError::InvalidConfig(_)) => {}
            Err(e) => panic!("{name} under {mode}: wrong error {e}"),
            Ok(_) => panic!("{name} under {mode}: built a machine"),
        }
    }
}

#[test]
fn empty_wpq_is_an_invalid_config() {
    let mut cfg = SimConfig::small_for_tests();
    cfg.mem.wpq_entries = 0;
    rejected("wpq_entries = 0", cfg);
}

#[test]
fn no_nvmm_channels_is_an_invalid_config() {
    let mut cfg = SimConfig::small_for_tests();
    cfg.mem.nvmm_channels = 0;
    rejected("nvmm_channels = 0", cfg);
}

#[test]
fn non_power_of_two_set_counts_are_invalid_configs() {
    // Three 64-byte blocks in one way: three sets.
    let mut cfg = SimConfig::small_for_tests();
    cfg.l1d.ways = 1;
    cfg.l1d.capacity_bytes = 192;
    rejected("L1D with 3 sets", cfg);

    // 192 L2 blocks in four ways: 48 sets.
    let mut cfg = SimConfig::small_for_tests();
    cfg.l2.ways = 4;
    cfg.l2.capacity_bytes = 192 * 64;
    rejected("L2 with 48 sets", cfg);
}

#[test]
fn the_shipped_configs_stay_valid() {
    for cfg in [SimConfig::small_for_tests(), SimConfig::default()] {
        cfg.validate().expect("shipped config validates");
        System::new(cfg, PersistencyMode::BbbMemorySide).expect("shipped config builds");
    }
}
