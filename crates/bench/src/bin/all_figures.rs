//! Runs the complete evaluation — every table and figure — and prints
//! markdown suitable for EXPERIMENTS.md.
//!
//! Unlike the single-figure binaries, this one runs in two passes over a
//! shared [`RunPool`]: the first pass only *collects* every job each
//! figure would run, the pool executes the deduplicated union on one
//! thread pool (serving repeats from the run cache when enabled), and the
//! second pass renders each figure from the shared result map.

use std::sync::Arc;
use std::time::Instant;

use refsim_core::experiment::{self as exp, ExpOptions, RunPool};
use refsim_core::report::Table;

type Builder = fn(&ExpOptions) -> Vec<Table>;

const SECTIONS: [(&str, Builder); 12] = [
    ("Table 1", |o| vec![exp::table01(o)]),
    ("Table 2", |o| vec![exp::table02(o)]),
    ("Figure 3", |o| vec![exp::figure03(o)]),
    ("Figure 4", |o| vec![exp::figure04(o)]),
    ("Figure 5", |_| vec![exp::figure05()]),
    ("Figure 10", exp::figure10),
    ("Figure 11", |o| vec![exp::figure11(o)]),
    ("Figure 12", |o| vec![exp::figure12(o)]),
    ("Figure 13", exp::figure13),
    ("Figure 14", |o| vec![exp::figure14(o)]),
    ("Figure 15", |o| vec![exp::figure15(o)]),
    ("Ablation", |o| vec![exp::ablation(o)]),
];

fn main() {
    let mut cli = refsim_bench::Cli::parse();
    let pool = Arc::new(RunPool::new());
    cli.opts.pool = Some(Arc::clone(&pool));
    let o = &cli.opts;
    let started = Instant::now();
    // Each section's wall time goes to stderr, so a slow builder shows
    // up in the progress log.
    let build = |name: &str, builder: Builder, pass: &str| {
        let t = Instant::now();
        let tables = builder(o);
        eprintln!(
            "[{:8.1?}] {name} {pass} in {:.1?}",
            started.elapsed(),
            t.elapsed()
        );
        tables
    };

    // Pass 1: every figure registers its jobs; tables are placeholders.
    for (name, builder) in SECTIONS {
        build(name, builder, "collected");
    }
    eprintln!(
        "[{:8.1?}] collected {} unique jobs across all figures",
        started.elapsed(),
        pool.unique_jobs()
    );

    // Execute the deduplicated union on one shared pool.
    pool.execute(o);
    eprintln!("[{:8.1?}] shared pool drained", started.elapsed());

    // Pass 2: render every figure from the shared result map.
    println!("# refsim — full evaluation run\n");
    println!(
        "time-scale 1/{}, {} workloads, {} measured window(s), seed {:#x}\n",
        o.time_scale,
        o.workloads.len(),
        o.measure_windows,
        o.seed
    );
    for (name, builder) in SECTIONS {
        for t in build(name, builder, "rendered") {
            println!("{}", t.to_markdown());
        }
    }
    eprintln!("total: {:?}", started.elapsed());
    cli.finish();
}
