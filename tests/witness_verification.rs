//! Regression: converged JIT methods whose final allocation is too
//! large for the verifier's exact colouring search, and on which its
//! greedy colouring fails, must still verify — through the colouring
//! the allocator built (`Allocation::witness`) — instead of coming
//! back `Unknown` with no register assignment.

use lra::core::batch::allocate_item;
use lra_bench::batchrun;

#[test]
fn converged_jit_huge_methods_verify_through_the_allocator_witness() {
    let experiment = batchrun::standard_experiments(2013)
        .into_iter()
        .find(|e| e.name == "jit-huge/Portfolio/R6")
        .expect("jit-huge is a standard experiment");
    for name in ["crypto::h6", "sunflow::h24"] {
        let f = experiment
            .functions
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{name} is in the jit-huge corpus"));
        let out = allocate_item(&experiment.pipeline, f)
            .outcome
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert!(out.converged, "{name} converges");
        assert!(
            out.verdict.is_feasible(),
            "{name}: verdict {:?}",
            out.verdict
        );
        assert!(out.assignment.registers_used() <= 6, "{name}");
        assert!(out.assignment.iter().count() > 0, "{name} has registers");
    }
}
