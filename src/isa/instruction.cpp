#include "isa/instruction.hpp"

#include "util/contracts.hpp"

namespace gb {

namespace {

// One row per opcode, in enum order.  Currents are per-core amperes at
// nominal voltage/frequency, calibrated so a fully packed SIMD loop draws
// ~1.5 A/core and an idle/nop loop ~0.45 A/core -- an aggregate swing of
// roughly 8 A across 8 aligned cores, in line with the droop magnitudes the
// X-Gene2 study implies (tens of mV at the PDN resonance).
constexpr std::array<op_traits, opcode_count> op_table{{
    // name        component               issue_A stall  mem_ns stall_A bytes  fp     load   store
    {"nop",        cpu_component::none,     0.05,   0,     0.0,   0.0,    0,     false, false, false},
    {"int_alu",    cpu_component::int_alu,  0.35,   0,     0.0,   0.0,    0,     false, false, false},
    {"int_mul",    cpu_component::int_alu,  0.50,   0,     0.0,   0.0,    0,     false, false, false},
    {"branch",     cpu_component::fetch,    0.25,   0,     0.0,   0.0,    0,     false, false, false},
    {"fp_alu",     cpu_component::fp_alu,   0.65,   0,     0.0,   0.0,    0,     true,  false, false},
    {"fp_mul",     cpu_component::fp_alu,   0.80,   0,     0.0,   0.0,    0,     true,  false, false},
    {"fp_div",     cpu_component::fp_alu,   0.40,   9,     0.0,   0.25,   0,     true,  false, false},
    {"simd_alu",   cpu_component::fp_alu,   1.05,   0,     0.0,   0.0,    0,     true,  false, false},
    {"simd_mul",   cpu_component::fp_alu,   1.30,   0,     0.0,   0.0,    0,     true,  false, false},
    {"load_l1",    cpu_component::l1d,      0.45,   0,     0.0,   0.0,    8,     false, true,  false},
    {"store_l1",   cpu_component::l1d,      0.40,   0,     0.0,   0.0,    8,     false, false, true},
    {"load_l2",    cpu_component::l2,       0.40,   7,     0.0,   0.15,   64,    false, true,  false},
    {"load_l3",    cpu_component::l3,       0.40,   28,    0.0,   0.12,   64,    false, true,  false},
    {"load_dram",  cpu_component::dram,     0.40,   0,     75.0,  0.10,   64,    false, true,  false},
    {"store_dram", cpu_component::dram,     0.35,   0,     40.0,  0.10,   64,    false, false, true},
}};

constexpr std::array<opcode, opcode_count> opcode_list{{
    opcode::nop, opcode::int_alu, opcode::int_mul, opcode::branch,
    opcode::fp_alu, opcode::fp_mul, opcode::fp_div, opcode::simd_alu,
    opcode::simd_mul, opcode::load_l1, opcode::store_l1, opcode::load_l2,
    opcode::load_l3, opcode::load_dram, opcode::store_dram,
}};

} // namespace

std::span<const opcode> all_opcodes() { return opcode_list; }

const op_traits& traits_of(opcode op) {
    const auto index = static_cast<std::size_t>(op);
    GB_EXPECTS(index < op_table.size());
    return op_table[index];
}

} // namespace gb
