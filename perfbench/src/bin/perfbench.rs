//! The untraced benchmark binary (`--trace 0`): system allocator only.

fn main() -> std::process::ExitCode {
    perfbench::cli::main(false)
}
