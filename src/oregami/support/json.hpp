// JSON string escaping, shared by the trace exporter and the server's
// wire format.
#pragma once

#include <string>

namespace oregami {

/// Escapes `s` for a JSON string literal: quote, backslash, \n, \r and
/// \t by name, every other byte below 0x20 as \u00XX. Other bytes pass
/// through unchanged.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace oregami
