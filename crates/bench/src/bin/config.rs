//! Prints the simulated system configuration (paper Table III).

use bbb_bench::Report;
use bbb_sim::{SimConfig, Table};

fn main() {
    let c = SimConfig::default();
    let mut t = Table::new(
        "Table III: the simulated system configuration",
        &["Component", "Configuration"],
    );
    t.row_owned(vec![
        "Processor".into(),
        format!(
            "{} cores, 2GHz, committed-op interpreter, SB {} (ROB, LSQ, issue width not modelled)",
            c.cores, c.core.store_buffer_entries
        ),
    ]);
    t.row_owned(vec![
        "L1D (private)".into(),
        format!(
            "{} kB, {}-way, 64 B blocks, {} cycles",
            c.l1d.capacity_bytes / 1024,
            c.l1d.ways,
            c.l1d.latency
        ),
    ]);
    t.row_owned(vec![
        "L2 (shared LLC)".into(),
        format!(
            "{} MB, {}-way, 64 B blocks, {} cycles, MESI directory",
            c.l2.capacity_bytes / (1024 * 1024),
            c.l2.ways,
            c.l2.latency
        ),
    ]);
    t.row_owned(vec![
        "DRAM".into(),
        format!(
            "{} GB, {} ns access",
            c.dram_bytes >> 30,
            c.mem.dram_access / 2
        ),
    ]);
    t.row_owned(vec![
        "NVMM".into(),
        format!(
            "{} GB, {} ns read / {} ns write (ADR), WPQ {} entries, {} banks",
            c.nvmm_bytes >> 30,
            c.mem.nvmm_read / 2,
            c.mem.nvmm_write / 2,
            c.mem.wpq_entries,
            c.mem.nvmm_channels
        ),
    ]);
    t.row_owned(vec![
        "bbPB".into(),
        format!(
            "{} entries per core, drain policy {:?}",
            c.bbpb.entries, c.bbpb.drain_policy
        ),
    ]);
    let mut report = Report::new("config");
    report.meta_scale_name("analytic");
    report.table(t);
    report.emit().expect("report output");
}
