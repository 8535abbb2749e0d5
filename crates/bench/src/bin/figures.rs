//! `figures` — run experiments of the paper's evaluation by id.
//!
//! ```text
//! figures <id>... | all [--quick] [--json PATH]
//! ```
//!
//! With no arguments it prints the usage and the ids. An unknown id or
//! flag, `--json` with more than one experiment, or `--seconds`/`--seed`
//! for anything but `engine_scaling` exits 2.

use std::process::ExitCode;
use tebaldi_bench::common::{banner, Options};
use tebaldi_bench::experiments::{select, usage};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let selected = Options::parse(&args).and_then(|(ids, options)| {
        select(&ids, &options).map(|experiments| (experiments, options))
    });
    let (experiments, options) = match selected {
        Ok(selected) => selected,
        Err(err) => {
            eprintln!("figures: {err}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for experiment in experiments {
        banner(experiment.title);
        experiment.run(&options).write(experiment.id, &options);
    }
    ExitCode::SUCCESS
}
