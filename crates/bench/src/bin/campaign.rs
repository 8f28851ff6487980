//! `campaign`: reproduces the paper's evaluation — Figures 4–9 and the
//! accuracy, scaling and traffic-imbalance tables — through the sweep
//! journal, printing each figure as the markdown section `EXPERIMENTS.md`
//! archives.
//!
//! ```text
//! campaign [--quick] [FIGURE...]     # no names: all nine
//! ```
//!
//! At full scale every cell is journaled to `results/journal.jsonl`, the
//! committed archive: a killed run resumes where it stopped and archived
//! cells are only re-read. `EXPERIMENTS.md` is then rewritten from every
//! figure whose cells are all archived. `--quick` runs the reduced grid in a
//! fresh `results/journal_quick.jsonl` and never writes `EXPERIMENTS.md`:
//! the configuration hash does not cover the code, so a kept quick journal
//! would show stale numbers after an edit. Paths are relative to the
//! working directory. An unknown figure name exits with status 2 before
//! anything runs.

use std::io::ErrorKind;
use std::process::ExitCode;

use wsn_bench::campaign::{self, FIGURES};
use wsn_bench::{PaperScenario, SweepJournal};

fn main() -> ExitCode {
    let (quick, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|arg| arg == "--quick");
    let figures = match campaign::select(&names) {
        Ok(figures) => figures,
        Err(unknown) => {
            let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            eprintln!("campaign: unknown figure {unknown:?}; figures: {}", valid.join(" "));
            eprintln!("usage: campaign [--quick] [FIGURE...]");
            return ExitCode::from(2);
        }
    };
    let (scenario, journal_path) = if quick.is_empty() {
        (PaperScenario::Full, "results/journal.jsonl")
    } else {
        (PaperScenario::Quick, "results/journal_quick.jsonl")
    };
    std::fs::create_dir_all("results").expect("the results directory creates");
    if scenario == PaperScenario::Quick {
        if let Err(e) = std::fs::remove_file(journal_path) {
            assert!(e.kind() == ErrorKind::NotFound, "cannot remove the stale {journal_path}: {e}");
        }
    }
    let mut journal = SweepJournal::open(journal_path).expect("the sweep journal opens");
    let before = journal.rows().len();
    println!("campaign: {scenario:?} scale, journal {journal_path} ({before} rows)\n");

    let tables = match campaign::run(&mut journal, scenario, &figures) {
        Ok(tables) => tables,
        Err(e) => {
            eprintln!("campaign: {e} (completed cells stay journaled)");
            return ExitCode::FAILURE;
        }
    };
    for table in &tables {
        print!("{}", table.render());
    }
    print!("{}", campaign::claims(&tables));
    let after = journal.rows().len();
    println!("journaled {} new rows ({after} in {journal_path})", after - before);
    if scenario == PaperScenario::Full {
        std::fs::write("EXPERIMENTS.md", campaign::document(&journal, scenario))
            .expect("EXPERIMENTS.md writes");
        println!("wrote EXPERIMENTS.md from the {after} archived rows");
    }
    ExitCode::SUCCESS
}
