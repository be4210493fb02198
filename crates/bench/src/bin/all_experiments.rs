//! Runs every experiment in one process; the CSVs are byte-identical
//! for every `--jobs N`, and to those the standalone binaries write.

fn main() {
    ipso_bench::experiments::run_all();
}
