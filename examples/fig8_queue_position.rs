//! Regenerates Figure 8: the queueing position of a fresh subtask `T_s`
//! under DIV-100 versus GF (the §6.1 argument for why GF wins without
//! hurting locals). Deterministic — no simulation.
//!
//! Run with: `cargo run --release --example fig8_queue_position`

use sda::core::PspStrategy;
use sda::sched::{Policy, QueuedTask, ReadyQueue};
use sda::simcore::SimTime;

fn scene(psp: PspStrategy) -> Vec<&'static str> {
    let now = SimTime::from(100.0);
    let mut q: ReadyQueue<&'static str> = ReadyQueue::new(Policy::Edf);
    q.push(QueuedTask::new(SimTime::from(98.0), 1.0, "L_earlier_1"));
    q.push(QueuedTask::new(SimTime::from(99.5), 1.0, "L_earlier_2"));
    q.push(QueuedTask::new(SimTime::from(108.0), 1.0, "L_later_1"));
    q.push(QueuedTask::new(SimTime::from(115.0), 1.0, "L_later_2"));
    let dl = psp.assign(now, now + 12.0, 4);
    q.push(QueuedTask::new(dl, 1.0, "T_s"));
    q.drain_in_order().into_iter().map(|e| e.item).collect()
}

fn main() {
    println!("## Figure 8: queueing position of a fresh subtask T_s (now = 100)");
    println!("queue before T_s: L_earlier (dl 98, 99.5; already doomed), L_later (dl 108, 115)");
    println!("T_s: global window 12, n = 4 parallel subtasks\n");
    for (label, psp) in [
        ("UD", PspStrategy::Ud),
        ("DIV-100", PspStrategy::div(100.0)),
        ("GF", PspStrategy::gf()),
    ] {
        let order = scene(psp);
        println!("{label:>8}:  {}", order.join("  ->  "));
    }
    println!(
        "\nSwitching DIV-100 -> GF moves T_s ahead of the already-doomed\n\
         L_earlier tasks only: L_later is untouched, T_s waits less, and\n\
         the locals that wait longer were going to miss anyway."
    );
}
