fn main() {
    let started = std::time::Instant::now();
    std::process::exit(qbench::cli::main(
        std::env::args().skip(1).collect(),
        started,
    ));
}
