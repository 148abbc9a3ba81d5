// The Scheduler component interface (Section III-A).
//
// A scheduler decides, once per slot, how many data units each user receives.
// Implementations may keep state across slots (virtual queues, burst phases)
// but must produce allocations satisfying constraints (1) and (2); the
// DataTransmitter validates every allocation before applying it.
#pragma once

#include <span>
#include <string>

#include "gateway/slot_context.hpp"
#include "net/allocation.hpp"

namespace jstream {

/// Per-slot data allocation policy.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Stable identifier used in reports and the factory ("rtma", "ema", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Clears internal state for a fresh run over `users` users.
  virtual void reset(std::size_t users) = 0;

  /// Clears any per-user state for population slot `user` only, leaving the
  /// rest of the run untouched. The session layer calls this when a departed
  /// slot is rebound to a freshly arrived session, so stale virtual queues or
  /// rotation state never leak across sessions. Stateless schedulers need not
  /// override the no-op default.
  virtual void reset_user(std::size_t user) { (void)user; }

  /// Computes phi_i(n) for every user into `out`, one entry per user,
  /// recycling its storage across slots so the steady state is
  /// allocation-free. Must satisfy:
  ///   0 <= phi_i <= ctx.users[i].alloc_cap_units      (constraint (1))
  ///   sum phi_i <= ctx.capacity_units                 (constraint (2))
  virtual void allocate_into(const SlotContext& ctx, Allocation& out) = 0;

  /// Lyapunov virtual-queue levels PC_i (Eq. 16) *after* the current slot's
  /// decision, for schedulers that maintain them (EMA family); empty
  /// otherwise. The paper-invariant validator cross-checks these against the
  /// Eq. 16 shadow recursion (see src/analysis/invariant_checker.hpp).
  [[nodiscard]] virtual std::span<const double> virtual_queues() const { return {}; }
};

}  // namespace jstream
