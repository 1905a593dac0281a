//! `aim-bench <artifact>|list [--scale S] [--jobs N] [--csv PATH]
//! [--grid tiny|full] [--check] [--schedules N]`: regenerates one artifact
//! of the paper's evaluation; `aim-bench list` names them all (see
//! `aim_bench::artifact`).

use aim_bench::{artifact, or_exit, Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, name) = or_exit(Options::parse(&args));
    let name = or_exit(
        name.ok_or_else(|| "expects an artifact name or `list` (e.g. aim-bench list)".to_string()),
    );
    if name == "list" {
        print!("{}", artifact::list());
        return;
    }
    let artifact = or_exit(artifact::find(&name));
    let out = artifact::execute(&artifact, &opts);
    std::process::exit(artifact::emit(&artifact, &opts, &out));
}
