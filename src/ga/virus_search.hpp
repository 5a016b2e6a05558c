// dI/dt virus generation: GA over instruction loops, fitness = radiated EM
// amplitude at the PDN resonance (the paper's Section III.C methodology).
#pragma once

#include <cstddef>
#include <vector>

#include "em/em_probe.hpp"
#include "ga/genetic.hpp"
#include "isa/kernel.hpp"
#include "isa/pipeline.hpp"
#include "pdn/pdn.hpp"

namespace gb {

/// GA problem: genome is a fixed-length loop of instruction classes; fitness
/// is the EM probe amplitude of the loop's current trace.
class virus_problem {
public:
    using genome_type = std::vector<opcode>;

    virus_problem(const pipeline_model& pipeline, const em_probe& probe,
                  std::size_t genome_length, std::uint64_t trace_cycles);

    [[nodiscard]] genome_type random_genome(rng& r) const;
    [[nodiscard]] double fitness(const genome_type& g) const;
    [[nodiscard]] genome_type mutate(const genome_type& g, rng& r) const;
    [[nodiscard]] genome_type crossover(const genome_type& a,
                                        const genome_type& b, rng& r) const;

private:
    const pipeline_model& pipeline_;
    const em_probe& probe_;
    std::size_t genome_length_;
    std::uint64_t trace_cycles_;
    double mutation_rate_;
};

/// Result of a virus search: the evolved kernel plus GA diagnostics.
struct virus_search_result {
    kernel virus;
    double em_amplitude = 0.0;
    std::vector<ga_generation_stats> history;
};

/// Evolve a dI/dt virus for a machine with the given pipeline and PDN.  The
/// probe is tuned to the PDN resonance internally.
[[nodiscard]] virus_search_result evolve_didt_virus(
    const pipeline_model& pipeline, const pdn_parameters& pdn,
    const ga_config& config, rng& r, std::size_t genome_length = 96,
    std::uint64_t trace_cycles = 2048);

} // namespace gb
