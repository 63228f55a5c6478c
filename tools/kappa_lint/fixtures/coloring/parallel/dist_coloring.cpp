// Fixture: the standalone protocol outside the refiner is fine — the
// rule covers parallel/spmd_phases.cpp only.
namespace kappa {

int standalone(const QuotientGraph& quotient) {
  return distributed_color_quotient_edges(quotient, 1).rounds;  // silent
}

}  // namespace kappa
