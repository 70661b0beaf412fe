//! Extension experiment: flash endurance over long update chains.
//!
//! NOR sectors endure ~10k erase cycles; the slot strategy therefore
//! bounds how many updates a device can ever take. This runs 40 sequential
//! real updates under each Fig. 6 configuration and reports per-sector
//! wear — quantifying an A/B benefit the paper mentions only via loading
//! time.
//!
//! ```text
//! cargo run --release -p upkit-bench --bin wear
//! ```

use upkit_bench::print_table;
use upkit_sim::{run_lifetime, SlotMode};

const ENDURANCE_CYCLES: u32 = 10_000;

fn main() {
    let updates = 40;
    let mut rows = Vec::new();
    let mut wear = Vec::new();
    for (name, mode) in [
        ("A/B (Configuration A)", SlotMode::AB),
        (
            "Static swap (Configuration B)",
            SlotMode::Static { swap: true },
        ),
    ] {
        let report = run_lifetime(mode, updates, 777);
        assert_eq!(report.updates_applied, updates);
        let updates_per_wear = f64::from(updates) / f64::from(report.max_sector_wear);
        let lifetime_updates = (f64::from(ENDURANCE_CYCLES) * updates_per_wear) as u64;
        wear.push(report.max_sector_wear);
        rows.push(vec![
            name.to_string(),
            report.max_sector_wear.to_string(),
            report.total_erases.to_string(),
            lifetime_updates.to_string(),
        ]);
    }

    print_table(
        &format!("Extension: flash wear over {updates} sequential updates"),
        &[
            "Configuration",
            "Max sector wear",
            "Total erases",
            "Updates until 10k-cycle endurance",
        ],
        &rows,
    );
    println!(
        "\nA/B wears the worst sector {:.1}× less than static swap: alternating\n\
         targets erase each slot every other update, while the swap erases the\n\
         staging slot twice per update (reception + boot-time swap).",
        f64::from(wear[1]) / f64::from(wear[0])
    );
}
