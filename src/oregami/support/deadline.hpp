// The wall-clock deadline idiom shared by the portfolio search, the
// repair ladder, the annealing chain, and the list scheduler:
//   budget == 0  -> no deadline; the clock is never read;
//   budget  < 0  -> already expired; the clock is never read, so the
//                   degraded behaviour is bit-deterministic (used by
//                   the deadline tests);
//   budget  > 0  -> passed() compares against steady_clock.
// Non-positive budgets therefore never introduce timing dependence.
#pragma once

#include <chrono>
#include <cstdint>

namespace oregami {

/// The largest budget an outside input may set: 2^40 ms, about 35
/// years. steady_clock counts nanoseconds in 64 bits, so now() plus a
/// budget from about 9.2e12 ms on overflows; the CLI's --time-budget,
/// the daemon's --deadline and the wire's deadline_ms and
/// options.budget_ms reject anything larger.
inline constexpr std::int64_t kMaxBudgetMs = std::int64_t{1} << 40;

class Deadline {
 public:
  explicit Deadline(std::int64_t budget_ms) {
    if (budget_ms == 0) {
      mode_ = Mode::None;
    } else if (budget_ms < 0) {
      mode_ = Mode::Expired;
    } else {
      mode_ = Mode::Timed;
      at_ = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(budget_ms);
    }
  }

  [[nodiscard]] bool passed() const {
    switch (mode_) {
      case Mode::None:
        return false;
      case Mode::Expired:
        return true;
      case Mode::Timed:
        return std::chrono::steady_clock::now() >= at_;
    }
    return false;
  }

  /// True when passed() might consult the clock (budget > 0); lets
  /// hot loops skip the syscall entirely for deterministic modes.
  [[nodiscard]] bool timed() const { return mode_ == Mode::Timed; }

 private:
  enum class Mode { None, Expired, Timed };
  Mode mode_ = Mode::None;
  std::chrono::steady_clock::time_point at_;
};

}  // namespace oregami
