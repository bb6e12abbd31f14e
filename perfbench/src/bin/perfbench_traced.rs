//! The traced benchmark binary (`--trace 1`): installs the counting
//! allocator the per-layer allocation metrics read.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::cli::main(true)
}
