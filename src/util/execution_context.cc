#include "util/execution_context.h"

#include "util/string_util.h"

namespace transer {

const ExecutionContext& ExecutionContext::Unlimited() {
  static const ExecutionContext* const kUnlimited = new ExecutionContext();
  return *kUnlimited;
}

bool ExecutionContext::Expired() const {
  if (limits_.time_limit_seconds <= 0.0) return false;
  if (expired_.load(std::memory_order_relaxed)) return true;
  // Amortise the clock read: only every kDeadlineCheckStride-th poll
  // pays the Stopwatch syscall. fetch_add starts at 0, so the very
  // first poll always consults the clock (a ~0 deadline is caught at
  // the first cooperative check, not after a whole stride).
  const uint32_t poll =
      deadline_poll_count_.fetch_add(1, std::memory_order_relaxed);
  return poll % kDeadlineCheckStride == 0 && DeadlinePassed();
}

bool ExecutionContext::DeadlinePassed() const {
  if (limits_.time_limit_seconds <= 0.0) return false;
  if (expired_.load(std::memory_order_relaxed)) return true;
  if (stopwatch_.ElapsedSeconds() <= limits_.time_limit_seconds) return false;
  expired_.store(true, std::memory_order_relaxed);
  return true;
}

Status ExecutionContext::TimeExceeded(const std::string& scope) {
  return Status::FailedPrecondition(scope + ": runtime limit exceeded (TE)");
}

Status ExecutionContext::CancelledError(const std::string& scope) {
  return Status::FailedPrecondition(scope + ": run cancelled");
}

Status ExecutionContext::Check(const std::string& scope,
                               RunDiagnostics* diagnostics) const {
  if (Cancelled()) {
    if (diagnostics != nullptr &&
        !cancel_recorded_.exchange(true, std::memory_order_relaxed)) {
      diagnostics->Add(DegradationKind::kRunCancelled, scope,
                       "cancellation token fired; run stopped cooperatively",
                       ElapsedSeconds(), 0.0);
    }
    return CancelledError(scope);
  }
  if (DeadlinePassed()) {
    if (diagnostics != nullptr &&
        !time_recorded_.exchange(true, std::memory_order_relaxed)) {
      diagnostics->Add(DegradationKind::kTimeLimitExceeded, scope,
                       StrFormat("wall-clock limit of %.3gs exceeded (TE)",
                                 limits_.time_limit_seconds),
                       limits_.time_limit_seconds, ElapsedSeconds());
    }
    return TimeExceeded(scope);
  }
  return Status::OK();
}

Status ExecutionContext::TryReserve(const std::string& scope, size_t bytes,
                                    RunDiagnostics* diagnostics) const {
  if (limits_.memory_limit_bytes > 0) {
    size_t current = reserved_.load(std::memory_order_relaxed);
    for (;;) {
      if (bytes > limits_.memory_limit_bytes ||
          current > limits_.memory_limit_bytes - bytes) {
        if (diagnostics != nullptr &&
            !memory_recorded_.exchange(true, std::memory_order_relaxed)) {
          diagnostics->Add(
              DegradationKind::kMemoryLimitExceeded, scope,
              StrFormat("reserving %zu bytes atop %zu exceeds the %zu-byte "
                        "budget (ME)",
                        bytes, current, limits_.memory_limit_bytes),
              static_cast<double>(limits_.memory_limit_bytes),
              static_cast<double>(current) + static_cast<double>(bytes));
        }
        return Status::FailedPrecondition(StrFormat(
            "%s: memory limit exceeded (ME): needs %zu bytes atop %zu "
            "reserved, limit %zu",
            scope.c_str(), bytes, current, limits_.memory_limit_bytes));
      }
      if (reserved_.compare_exchange_weak(current, current + bytes,
                                          std::memory_order_relaxed)) {
        break;
      }
    }
  } else {
    reserved_.fetch_add(bytes, std::memory_order_relaxed);
  }
  const size_t now = reserved_.load(std::memory_order_relaxed);
  size_t peak = peak_reserved_.load(std::memory_order_relaxed);
  while (now > peak && !peak_reserved_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

void ExecutionContext::Release(size_t bytes) const {
  size_t current = reserved_.load(std::memory_order_relaxed);
  for (;;) {
    const size_t next = bytes > current ? 0 : current - bytes;
    if (reserved_.compare_exchange_weak(current, next,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
}

void ExecutionContext::BeginStage(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(heartbeat_mutex_);
  stage_ = stage;
  last_emitted_fraction_ = 0.0;
  if (progress_) progress_(ProgressEvent{stage_, 0.0});
}

void ExecutionContext::ReportProgress(double fraction) const {
  std::lock_guard<std::mutex> lock(heartbeat_mutex_);
  if (!progress_) return;
  if (fraction < last_emitted_fraction_ + 0.01 && fraction < 1.0) return;
  last_emitted_fraction_ = fraction;
  progress_(ProgressEvent{stage_, fraction});
}

std::string ExecutionContext::current_stage() const {
  std::lock_guard<std::mutex> lock(heartbeat_mutex_);
  return stage_;
}

ScopedReservation::~ScopedReservation() { Release(); }

ScopedReservation::ScopedReservation(ScopedReservation&& other) noexcept
    : context_(other.context_),
      scope_(std::move(other.scope_)),
      bytes_(other.bytes_) {
  other.context_ = nullptr;
  other.bytes_ = 0;
}

ScopedReservation& ScopedReservation::operator=(
    ScopedReservation&& other) noexcept {
  if (this != &other) {
    Release();
    context_ = other.context_;
    scope_ = std::move(other.scope_);
    bytes_ = other.bytes_;
    other.context_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

Status ScopedReservation::Acquire(const ExecutionContext& context,
                                  const std::string& scope, size_t bytes,
                                  RunDiagnostics* diagnostics) {
  Release();
  TRANSER_RETURN_IF_ERROR(context.TryReserve(scope, bytes, diagnostics));
  context_ = &context;
  scope_ = scope;
  bytes_ = bytes;
  return Status::OK();
}

Status ScopedReservation::Grow(size_t bytes, RunDiagnostics* diagnostics) {
  if (context_ == nullptr) {
    return Status::InvalidArgument(
        "ScopedReservation::Grow before a successful Acquire");
  }
  TRANSER_RETURN_IF_ERROR(context_->TryReserve(scope_, bytes, diagnostics));
  bytes_ += bytes;
  return Status::OK();
}

void ScopedReservation::Release() {
  if (context_ != nullptr && bytes_ > 0) context_->Release(bytes_);
  bytes_ = 0;
  context_ = nullptr;
}

}  // namespace transer
