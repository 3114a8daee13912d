#include "serve/admission.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace ansmet::serve {

AdmissionScheduler::AdmissionScheduler(const AdmissionConfig &cfg)
    : cfg_(cfg)
{
    ANSMET_CHECK(cfg.queueCapacity > 0,
                 "admission: queue capacity must be > 0");
    ANSMET_CHECK(cfg.qshrsPerQuery > 0 &&
                     cfg.qshrsPerQuery <= cfg.numQshrs,
                 "admission: qshrsPerQuery out of range");
    max_in_flight_ = cfg.numQshrs / cfg.qshrsPerQuery;
    ANSMET_CHECK(max_in_flight_ > 0,
                 "admission: config admits no query at all");
    // Slot allocation uses one 64-bit mask; the paper's 32 QSHRs give
    // at most 32 slots, far under the mask width.
    ANSMET_CHECK(max_in_flight_ <= 64,
                 "admission: more than 64 concurrent slots unsupported");
    free_slots_ = max_in_flight_ == 64
                      ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << max_in_flight_) - 1;
}

bool
AdmissionScheduler::tryOffer(std::uint64_t queryId, std::size_t traceIdx,
                             Tick now)
{
    ++offered_;
    ANSMET_CHECK(live_ids_.insert(queryId).second,
                 "admission: query id ", queryId,
                 " offered while already queued or in flight");
    if (queue_.size() >= cfg_.queueCapacity) {
        live_ids_.erase(queryId);
        ++dropped_;
        return false;
    }
    Admitted a;
    a.queryId = queryId;
    a.traceIdx = traceIdx;
    a.enqueuedAt = now;
    queue_.push_back(a);
    return true;
}

std::optional<AdmissionScheduler::Admitted>
AdmissionScheduler::admitNext(Tick)
{
    if (queue_.empty() || free_slots_ == 0)
        return std::nullopt;
    Admitted a = queue_.front();
    queue_.pop_front();
    a.slot = static_cast<unsigned>(std::countr_zero(free_slots_));
    free_slots_ &= free_slots_ - 1;
    ++in_flight_;
    ++admitted_;
    ANSMET_CHECK(occupiedQshrs() <= cfg_.numQshrs,
                 "admission: occupied QSHRs ", occupiedQshrs(),
                 " exceed the ", cfg_.numQshrs, " available");
    max_occupied_qshrs_ = std::max(max_occupied_qshrs_, occupiedQshrs());
    return a;
}

void
AdmissionScheduler::release(unsigned slot, std::uint64_t queryId)
{
    ANSMET_CHECK(slot < max_in_flight_, "admission: slot out of range");
    const std::uint64_t bit = std::uint64_t{1} << slot;
    ANSMET_CHECK((free_slots_ & bit) == 0,
                 "admission: releasing slot ", slot, " twice");
    ANSMET_CHECK(live_ids_.erase(queryId) == 1,
                 "admission: releasing unknown query id ", queryId);
    free_slots_ |= bit;
    ANSMET_CHECK(in_flight_ > 0);
    --in_flight_;
}

} // namespace ansmet::serve
