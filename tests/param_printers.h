#ifndef LOOM_TESTS_PARAM_PRINTERS_H_
#define LOOM_TESTS_PARAM_PRINTERS_H_

// GoogleTest prints a test parameter through the `PrintTo` overload it finds
// by argument-dependent lookup, and ctest names each parameterised instance
// with that print ("... # GetParam() = (...)"). Without these overloads the
// order enums print as their raw bytes, so renumbering an enumerator would
// rename instances whose tests did not change.

#include <ostream>

#include "restream/restreamer.h"
#include "stream/stream.h"

namespace loom {

inline void PrintTo(StreamOrder order, std::ostream* os) {
  *os << StreamOrderName(order);
}

inline void PrintTo(RestreamOrder order, std::ostream* os) {
  *os << RestreamOrderName(order);
}

}  // namespace loom

#endif  // LOOM_TESTS_PARAM_PRINTERS_H_
