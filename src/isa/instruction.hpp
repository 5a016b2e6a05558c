// Abstract ARMv8-like instruction classes.
//
// The paper's diagnostic viruses are hand-crafted or GA-generated loops of
// real ARMv8 instructions chosen to stress specific micro-architectural
// components (L1I/L1D, L2, integer and FP ALUs) or to maximize dI/dt.  This
// module abstracts instructions into classes with the properties that matter
// for guardband characterization: which component they exercise, how much
// current they draw while active, and how long they occupy the in-order
// pipeline.  Memory instructions name the cache level they hit, standing in
// for the pointer-chasing buffers real viruses size to each level.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/units.hpp"

namespace gb {

/// Micro-architectural component an instruction class stresses.  Mirrors the
/// component list in the paper (Section I): L1I/L1D, L2, integer and FP ALUs.
enum class cpu_component : std::uint8_t {
    fetch,   ///< L1 instruction cache / front end
    l1d,     ///< L1 data cache
    l2,      ///< per-PMD shared L2
    l3,      ///< shared L3 behind the central switch
    dram,    ///< memory controller path
    int_alu, ///< integer execute
    fp_alu,  ///< floating-point / SIMD execute
    none,    ///< no specific component (nop)
};

constexpr int cpu_component_count = 8;

/// Instruction classes available to kernels and to the GA genome.
enum class opcode : std::uint8_t {
    nop,
    int_alu,
    int_mul,
    branch,
    fp_alu,
    fp_mul,
    fp_div,
    simd_alu,
    simd_mul,
    load_l1,
    store_l1,
    load_l2,
    load_l3,
    load_dram,
    store_dram,
};

constexpr int opcode_count = 15;

/// All opcodes, for iteration and for the GA's gene alphabet.
[[nodiscard]] std::span<const opcode> all_opcodes();

/// Static properties of one instruction class.
struct op_traits {
    std::string_view name;
    cpu_component component = cpu_component::none;
    /// Current drawn by the core on the instruction's issue cycle, on top of
    /// the clock/fetch baseline (amperes, at nominal V/F).
    double issue_current_a = 0.0;
    /// Extra cycles the in-order pipeline stalls after issue (cache misses,
    /// long dividers).  For DRAM ops this is derived from `memory_latency_ns`
    /// instead, so stalls scale with core frequency.
    int stall_cycles = 0;
    /// Wall-clock memory latency for DRAM-reaching ops; 0 for everything else.
    double memory_latency_ns = 0.0;
    /// Current drawn during stall cycles (amperes).
    double stall_current_a = 0.0;
    /// Bytes moved to/from memory (cacheline for DRAM-reaching ops).
    int memory_bytes = 0;
    bool is_fp = false;
    bool is_load = false;
    bool is_store = false;
};

/// Traits lookup for an opcode.
[[nodiscard]] const op_traits& traits_of(opcode op);

/// Baseline core current (clock tree, fetch, L1 arrays) present every cycle
/// (amperes).  A constant offset: contributes to power but not to dI/dt.
inline constexpr double core_baseline_current_a = 0.45;

} // namespace gb
