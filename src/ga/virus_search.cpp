#include "ga/virus_search.hpp"

#include "util/contracts.hpp"

namespace gb {

virus_problem::virus_problem(const pipeline_model& pipeline,
                             const em_probe& probe, std::size_t genome_length,
                             std::uint64_t trace_cycles)
    : pipeline_(pipeline), probe_(probe), genome_length_(genome_length),
      trace_cycles_(trace_cycles),
      mutation_rate_(2.0 / static_cast<double>(genome_length)) {
    GB_EXPECTS(genome_length >= 2);
    GB_EXPECTS(trace_cycles >= 64);
}

virus_problem::genome_type virus_problem::random_genome(rng& r) const {
    // Initialize with runs of identical instructions rather than i.i.d.
    // genes: dI/dt structure lives in bursts, and a run-structured initial
    // population gives the GA a usable gradient (i.i.d. genomes are all
    // near-homogeneous mixes with uniformly poor fitness).
    const std::span<const opcode> alphabet = all_opcodes();
    genome_type g;
    g.reserve(genome_length_);
    while (g.size() < genome_length_) {
        const opcode op = alphabet[r.uniform_index(alphabet.size())];
        const std::size_t run = 4 + r.uniform_index(28);
        for (std::size_t k = 0; k < run && g.size() < genome_length_; ++k) {
            g.push_back(op);
        }
    }
    return g;
}

double virus_problem::fitness(const genome_type& g) const {
    kernel k;
    k.name = "ga_candidate";
    k.body = g;
    const execution_profile profile = pipeline_.execute(k, trace_cycles_);
    return probe_.amplitude(profile.current_trace);
}

virus_problem::genome_type virus_problem::mutate(const genome_type& g,
                                                 rng& r) const {
    const std::span<const opcode> alphabet = all_opcodes();
    genome_type mutated = g;
    // Point mutations explore locally ...
    for (opcode& op : mutated) {
        if (r.bernoulli(mutation_rate_)) {
            op = alphabet[r.uniform_index(alphabet.size())];
        }
    }
    // ... and an occasional run rewrite shifts burst boundaries, the move
    // that actually tunes the loop toward the PDN resonance.
    if (r.bernoulli(0.5)) {
        const std::size_t start = r.uniform_index(mutated.size());
        const std::size_t run = 3 + r.uniform_index(22);
        const opcode op = alphabet[r.uniform_index(alphabet.size())];
        for (std::size_t k = 0; k < run && start + k < mutated.size(); ++k) {
            mutated[start + k] = op;
        }
    }
    return mutated;
}

virus_problem::genome_type virus_problem::crossover(const genome_type& a,
                                                    const genome_type& b,
                                                    rng& r) const {
    GB_EXPECTS(a.size() == b.size());
    // One-point crossover: loop prefixes carry the burst structure the GA
    // builds up, so a single cut preserves them better than uniform mixing.
    const std::size_t cut = 1 + r.uniform_index(a.size() - 1);
    genome_type child = a;
    for (std::size_t i = cut; i < b.size(); ++i) {
        child[i] = b[i];
    }
    return child;
}

virus_search_result evolve_didt_virus(const pipeline_model& pipeline,
                                      const pdn_parameters& pdn,
                                      const ga_config& config, rng& r,
                                      std::size_t genome_length,
                                      std::uint64_t trace_cycles) {
    const em_probe probe(pdn.resonant_frequency_hz(), pipeline.clock());
    const virus_problem problem(pipeline, probe, genome_length, trace_cycles);
    ga_result<virus_problem::genome_type> ga = run_ga(problem, config, r);

    virus_search_result result;
    result.virus.name = "ga_didt_virus";
    result.virus.body = std::move(ga.best);
    result.em_amplitude = ga.best_fitness;
    result.history = std::move(ga.history);
    return result;
}

} // namespace gb
