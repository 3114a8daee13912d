/**
 * @file
 * Bounded admission queue + slot scheduler for the serving engine.
 *
 * Arrivals enter a bounded FIFO; when full, the arrival is dropped and
 * counted (open-loop load does not block). Admission packs in-flight
 * queries onto the session slots of core::SystemModel, each of which
 * owns `qshrsPerQuery` of the NDP units' QSHRs — so the invariant
 * "occupied QSHRs <= numQshrs" (the paper's 32 query slots) is
 * enforced here, by capping in-flight queries at
 * numQshrs / qshrsPerQuery, and is checked on every admit.
 *
 * Policy: strict FIFO admission onto the lowest free slot. FIFO gives
 * the no-starvation bound the property tests assert (a query waits at
 * most the drain time of the arrivals ahead of it, regardless of Zipf
 * skew); lowest-free-slot keeps slot assignment deterministic.
 *
 * Driven only from simulation callbacks (one thread); not thread-safe
 * by design.
 */

#ifndef ANSMET_SERVE_ADMISSION_H
#define ANSMET_SERVE_ADMISSION_H

#include <cstdint>
#include <deque>
#include <optional>
#include <set>

#include "common/types.h"

namespace ansmet::serve {

struct AdmissionConfig
{
    std::size_t queueCapacity = 64; //!< waiting arrivals before drops
    unsigned numQshrs = 32;         //!< QSHRs per NDP unit (paper: 32)
    unsigned qshrsPerQuery = 2;     //!< SystemConfig::qshrsPerQuery
};

class AdmissionScheduler
{
  public:
    explicit AdmissionScheduler(const AdmissionConfig &cfg);

    /** One admitted query bound to a slot. */
    struct Admitted
    {
        unsigned slot = 0;
        std::uint64_t queryId = 0;
        std::size_t traceIdx = 0;
        Tick enqueuedAt{};
    };

    /** Concurrent in-flight query bound: numQshrs / qshrsPerQuery. */
    unsigned maxInFlight() const { return max_in_flight_; }

    /**
     * Offer an arrival to the queue. Returns false (and counts a
     * drop) when the queue is full; the result must be checked — a
     * caller that ignores it cannot tell an enqueued query from a
     * dropped one. Offering a query id that is already queued or in
     * flight is a caller bug and CHECK-fails: admitting one query
     * twice would double-free its slot.
     */
    [[nodiscard]] bool tryOffer(std::uint64_t queryId,
                                std::size_t traceIdx, Tick now);

    /**
     * Admit the longest-waiting queued query onto the lowest free
     * slot, or nullopt when the queue is empty or every slot is
     * occupied. Never exceeds maxInFlight() in-flight queries. The
     * result carries the slot binding; discarding it would leak the
     * slot.
     */
    [[nodiscard]] std::optional<Admitted> admitNext(Tick now);

    /** Return @p slot to the free pool when its query completes. */
    void release(unsigned slot, std::uint64_t queryId);

    std::size_t queueDepth() const { return queue_.size(); }
    /** QSHRs occupied right now: in-flight queries * qshrsPerQuery. */
    unsigned occupiedQshrs() const { return in_flight_ * cfg_.qshrsPerQuery; }
    /** High-water mark of occupiedQshrs() over the run. */
    unsigned maxOccupiedQshrs() const { return max_occupied_qshrs_; }
    std::uint64_t offered() const { return offered_; }
    std::uint64_t admitted() const { return admitted_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    AdmissionConfig cfg_;
    unsigned max_in_flight_;
    std::deque<Admitted> queue_;
    std::uint64_t free_slots_; //!< bitmask, bit s = slot s free
    unsigned in_flight_ = 0;
    unsigned max_occupied_qshrs_ = 0;
    std::uint64_t offered_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t dropped_ = 0;
    /** Ids queued or in flight; guards against double admission.
     *  Ordered set: lookups only today, but should anyone iterate it,
     *  the order is the id order, not hash-bucket order (R9). */
    std::set<std::uint64_t> live_ids_;
};

} // namespace ansmet::serve

#endif // ANSMET_SERVE_ADMISSION_H
