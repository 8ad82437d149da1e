#ifndef TRANSER_UTIL_EXECUTION_CONTEXT_H_
#define TRANSER_UTIL_EXECUTION_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "util/diagnostics.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace transer {

/// \brief Thread-safe cancellation flag. One token may be shared by a
/// whole sweep; cancelling it interrupts every ExecutionContext that
/// observes it at the next cooperative check.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// \brief The resource caps of one run. Zero means unlimited. The paper
/// capped every experiment at 72 h / 200 GB (Section 5.1.1).
struct ExecutionLimits {
  double time_limit_seconds = 0.0;  ///< 0 = unlimited
  size_t memory_limit_bytes = 0;    ///< 0 = unlimited

  bool operator==(const ExecutionLimits&) const = default;
};

/// \brief One progress heartbeat: the stage a run is in and how far
/// through it is (fraction in [0, 1]; < 0 = unknown).
struct ProgressEvent {
  std::string stage;
  double fraction = -1.0;
};

using ProgressCallback = std::function<void(const ProgressEvent&)>;

/// \brief Cooperative execution control shared by every long-running
/// path: a wall-clock deadline, a cancellation token, a byte-accounted
/// memory budget, and a progress heartbeat.
///
/// The context never preempts anything — pipeline stages, transfer
/// methods, blocking schemes, kNN backends and classifier training
/// loops poll it (`Check`, `TryReserve`) and surface expiry as the
/// paper's `TE` / `ME` `FailedPrecondition` statuses. Clock reads are
/// amortised: `Expired()` consults the stopwatch only every
/// `kDeadlineCheckStride` calls and latches once true, so a tight loop
/// pays an atomic increment, not a syscall, per iteration. `Check()`
/// reads the clock on every call.
///
/// Deadline/cancellation/memory state is safe to poll from several
/// threads; the heartbeat (`BeginStage` / `ReportProgress`) is
/// mutex-serialised so concurrent sweep groups sharing one context may
/// emit progress, though a single driving thread remains the intended
/// use (interleaved stages from parallel phases are hard to read).
class ExecutionContext {
 public:
  /// Clock reads happen once per this many Expired() polls.
  static constexpr uint32_t kDeadlineCheckStride = 256;

  /// A context with no limits, no cancellation and no heartbeat.
  ExecutionContext() = default;

  explicit ExecutionContext(ExecutionLimits limits,
                            const CancellationToken* cancel = nullptr,
                            ProgressCallback progress = nullptr)
      : limits_(limits), cancel_(cancel), progress_(std::move(progress)) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Process-wide default used where a caller passes no context.
  static const ExecutionContext& Unlimited();

  // --- deadline & cancellation -------------------------------------

  /// True once the wall-clock limit has elapsed (never when unlimited).
  /// Amortised: reads the clock every kDeadlineCheckStride calls and
  /// latches, so polling per iteration is cheap.
  bool Expired() const;

  /// True once the attached token was cancelled.
  bool Cancelled() const {
    return cancel_ != nullptr && cancel_->cancelled();
  }

  /// True when the run should stop for any reason. Cheap enough for
  /// per-iteration polling (classifier epochs, kNN scans).
  bool Interrupted() const { return Cancelled() || Expired(); }

  /// OK, or the TE / cancellation FailedPrecondition for `scope` (e.g.
  /// a method or stage name). On first failure the outcome is recorded
  /// in `diagnostics` (when given); repeats are not re-recorded. Unlike
  /// Expired(), reads the clock on every call: a context polled only at
  /// coarse boundaries (a sweep checks once per cell) must see a passed
  /// deadline at the first boundary after it.
  Status Check(const std::string& scope,
               RunDiagnostics* diagnostics = nullptr) const;

  /// The paper's 'TE' status for `scope`.
  static Status TimeExceeded(const std::string& scope);

  /// The cooperative-cancellation status for `scope`.
  static Status CancelledError(const std::string& scope);

  // --- memory budget ------------------------------------------------

  /// Reserves `bytes` against the budget. Returns the 'ME'
  /// FailedPrecondition (recorded once in `diagnostics` when given)
  /// if the reservation would exceed the limit; otherwise the bytes
  /// count towards `reserved_bytes()` until Release()d.
  Status TryReserve(const std::string& scope, size_t bytes,
                    RunDiagnostics* diagnostics = nullptr) const;

  /// Returns previously reserved bytes to the budget.
  void Release(size_t bytes) const;

  size_t reserved_bytes() const {
    return reserved_.load(std::memory_order_relaxed);
  }
  /// High-water mark of reserved bytes over the context's lifetime.
  size_t peak_reserved_bytes() const {
    return peak_reserved_.load(std::memory_order_relaxed);
  }

  // --- heartbeat ----------------------------------------------------

  /// Marks the start of a named stage (emitted to the progress callback
  /// immediately, with fraction 0).
  void BeginStage(const std::string& stage) const;

  /// Reports progress through the current stage; emitted to the
  /// callback only when the fraction advanced >= 1% since the last
  /// emission, so per-iteration reporting stays cheap.
  void ReportProgress(double fraction) const;

  /// Name of the current stage (copied under the heartbeat lock).
  std::string current_stage() const;

  // --- introspection ------------------------------------------------

  const ExecutionLimits& limits() const { return limits_; }
  /// The attached token (nullptr when none), so a nested context — a
  /// sweep cell under its own limits — can observe the same
  /// cancellation.
  const CancellationToken* cancellation_token() const { return cancel_; }
  double ElapsedSeconds() const { return stopwatch_.ElapsedSeconds(); }

 private:
  /// The deadline test without amortisation (reads the clock, latches).
  bool DeadlinePassed() const;

  ExecutionLimits limits_;
  const CancellationToken* cancel_ = nullptr;  ///< not owned
  ProgressCallback progress_;
  Stopwatch stopwatch_;

  mutable std::atomic<uint32_t> deadline_poll_count_{0};
  mutable std::atomic<bool> expired_{false};  ///< latched
  mutable std::atomic<size_t> reserved_{0};
  mutable std::atomic<size_t> peak_reserved_{0};
  /// One diagnostics record per outcome kind, not one per poll.
  mutable std::atomic<bool> time_recorded_{false};
  mutable std::atomic<bool> memory_recorded_{false};
  mutable std::atomic<bool> cancel_recorded_{false};

  /// Guards the heartbeat state below (and the progress callback call).
  mutable std::mutex heartbeat_mutex_;
  mutable std::string stage_;
  mutable double last_emitted_fraction_ = -1.0;
};

/// \brief RAII handle for a budget reservation: releases the acquired
/// bytes (including later Grow()s) when destroyed. Move-only, so owners
/// like KdTree stay movable while the budget stays balanced.
class ScopedReservation {
 public:
  ScopedReservation() = default;
  ~ScopedReservation();

  ScopedReservation(ScopedReservation&& other) noexcept;
  ScopedReservation& operator=(ScopedReservation&& other) noexcept;
  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;

  /// Reserves `bytes` from `context` (releasing any prior holding
  /// first). On 'ME' the reservation holds nothing.
  Status Acquire(const ExecutionContext& context, const std::string& scope,
                 size_t bytes, RunDiagnostics* diagnostics = nullptr);

  /// Reserves `bytes` more on top of the current holding. Requires a
  /// prior successful Acquire (growing an empty reservation fails a
  /// CHECK in debug terms: it returns InvalidArgument).
  Status Grow(size_t bytes, RunDiagnostics* diagnostics = nullptr);

  /// Releases the holding early.
  void Release();

  size_t bytes() const { return bytes_; }

 private:
  const ExecutionContext* context_ = nullptr;
  std::string scope_;
  size_t bytes_ = 0;
};

}  // namespace transer

#endif  // TRANSER_UTIL_EXECUTION_CONTEXT_H_
