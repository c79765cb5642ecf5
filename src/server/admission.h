// Admission control for the serving layer: a fixed in-flight cap with a
// typed rejection. A server sized for N concurrent optimizations must
// turn away request N+1 *before* doing any work for it; a rejected
// request gets StatusCode::kOverloaded (nothing was attempted; back off
// and re-submit), never a silent queue.
//
// Concurrency: the slot counter is pure atomics, so the front door takes
// no lock (DESIGN.md section 14).

#ifndef PARQO_SERVER_ADMISSION_H_
#define PARQO_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>

#include "common/check.h"

namespace parqo {

class AdmissionController {
 public:
  /// `max_in_flight` clamps to >= 1.
  explicit AdmissionController(int max_in_flight)
      : max_in_flight_(max_in_flight < 1 ? 1 : max_in_flight) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Claims one in-flight slot; false when the server is at capacity.
  bool TryAdmit() {
    if (TryClaim()) {
      admitted_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  void Release() {
    int prev = in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    PARQO_CHECK(prev > 0);
  }

  int max_in_flight() const { return max_in_flight_; }
  int in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  /// CAS loop rather than fetch_add/undo so a rejected caller never
  /// transiently occupies a slot another request could have used.
  bool TryClaim() {
    int cur = in_flight_.load(std::memory_order_relaxed);
    while (cur < max_in_flight_) {
      if (in_flight_.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  const int max_in_flight_;
  std::atomic<int> in_flight_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// RAII in-flight slot: truthy when admitted, releases on destruction.
/// Sessions hold one across the whole optimize+execute pipeline so a
/// query that throws out of the executor still frees its slot.
class AdmissionTicket {
 public:
  explicit AdmissionTicket(AdmissionController& controller)
      : controller_(&controller), admitted_(controller.TryAdmit()) {}

  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  ~AdmissionTicket() {
    if (admitted_) controller_->Release();
  }

  explicit operator bool() const { return admitted_; }

 private:
  AdmissionController* controller_;
  bool admitted_;
};

}  // namespace parqo

#endif  // PARQO_SERVER_ADMISSION_H_
