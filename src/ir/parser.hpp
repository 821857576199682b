// Parser for the textual IR form produced by printer.hpp, completing the
// round trip: modules (records, globals with their initial data,
// functions) can be exchanged as text — e.g. stored in the knowledge base
// next to the experiment that produced them, or sent inline to the tuning
// service. A parsed module runs exactly like the printed one.
#pragma once

#include <string>

#include "ir/module.hpp"

namespace ilc::ir {

/// Parse a module from its textual form. Throws support::CheckError with
/// a line-numbered message on malformed input.
Module parse_module(const std::string& text);

}  // namespace ilc::ir
