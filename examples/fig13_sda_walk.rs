//! Demonstrates Figure 13: the recursive SDA algorithm decomposing the
//! Figure 1 task graph `[T1 [T2 || [T3 T4 T5]] [T6 || T7] T8]` on-line,
//! printing every virtual-deadline assignment as subtasks become
//! executable. Deterministic — no simulation.
//!
//! Run with: `cargo run --release --example fig13_sda_walk`

use sda::core::{Decomposition, SdaStrategy};
use sda::model::parse_spec;
use sda::simcore::SimTime;

fn main() {
    let spec = parse_spec("[T1 [T2 || [T3 T4 T5]] [T6 || T7] T8]").expect("valid notation");
    println!("## Figure 13: SDA(X, D) on the Figure 1 task graph");
    println!("task graph: {spec}");
    let pex = vec![1.0, 2.0, 0.5, 0.5, 0.5, 1.0, 1.5, 1.0];
    let deadline = SimTime::from(16.0);
    let strategy = SdaStrategy::eqf_div1();
    println!("end-to-end deadline D = {deadline}, strategy = {strategy}, pex = {pex:?}\n");

    let mut decomp = Decomposition::new(&spec, pex.clone());
    let mut pending = decomp.start(SimTime::ZERO, deadline, &strategy);
    let mut now = 0.0f64;
    while !pending.is_empty() {
        pending.sort_by_key(|r| r.leaf);
        for r in &pending {
            println!(
                "t = {now:5.2}   T{} executable, dl(T{}) = {:5.2}",
                r.leaf + 1,
                r.leaf + 1,
                r.deadline.value()
            );
        }
        // Complete every executable subtask at its predicted time.
        let batch = std::mem::take(&mut pending);
        let finish = now + batch.iter().map(|r| pex[r.leaf]).fold(0.0, f64::max);
        for r in batch {
            pending.extend(decomp.complete_leaf(r.leaf, SimTime::from(finish), &strategy));
        }
        now = finish;
    }
    assert!(decomp.is_finished());
    println!("t = {now:5.2}   global task complete (D was {deadline})");
    println!(
        "\nSerial stages are assigned when they become executable (EQF, from\n\
         actual completion times); parallel fan-outs divide their stage\n\
         window by the sibling count (DIV-1)."
    );
}
