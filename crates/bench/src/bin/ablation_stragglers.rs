fn main() {
    ipso_bench::experiments::main(env!("CARGO_BIN_NAME"));
}
