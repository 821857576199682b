// Structural fingerprint of a module: identical optimized code (including
// layout-affecting state) hashes identically, which lets the search
// harness memoize simulator runs across optimization sequences that
// converge to the same code.
#pragma once

#include <cstdint>

#include "ir/module.hpp"

namespace ilc::ir {

std::uint64_t fingerprint(const Function& fn);
/// Code, layout and global initial data: two programs that differ only in
/// their data run differently.
std::uint64_t fingerprint(const Module& mod);

/// The global-initial-data part of fingerprint(mod). No pass changes it,
/// so a caller fingerprinting many optimized variants of one program
/// hashes the data once and passes it to the two-argument form, which
/// equals fingerprint(mod).
std::uint64_t data_fingerprint(const Module& mod);
std::uint64_t fingerprint(const Module& mod, std::uint64_t data_fp);

}  // namespace ilc::ir
