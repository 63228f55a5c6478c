// Fixture: the refiner running the §5.1 coloring protocol again. The
// quotient is replicated on every rank, so the refiner colors it locally;
// the protocol call fires, the local greedy stays silent.
// (Fixtures are lexed, never compiled, so the callees need no decls.)
namespace kappa {

// -------------------------------------------------------- SPMD refinement ----

int schedule(const QuotientGraph& quotient, const Rng& rng, PEContext& pe) {
  const int local = color_quotient_edges(quotient, rng).num_colors;  // silent
  return local +
         distributed_color_quotient_edges(quotient, rng, pe).rounds;  // fires
}

}  // namespace kappa
