// dense_map — an array-with-hash container for integer keys that are
// *usually* consecutive: circuit handles, engine-pool slots, connection
// keys, cache sequence numbers. The hot maps in this codebase all share
// that shape (IDs handed out by a monotonic counter, probed millions of
// times per second on the serve path), and a general-purpose
// std::unordered_map pays hashing, pointer chasing and allocator churn
// for flexibility none of them need.
//
// Layout: two regions behind one interface.
//
//   array region   keys in [0, array_limit()): a flat vector indexed
//                  directly by key plus an occupancy bitmask. A lookup is
//                  one bounds check, one bit test and one load — no hash,
//                  no probe sequence, no comparison. The region grows
//                  adaptively: inserting key k extends it (to the next
//                  power of two covering k) only while k stays within 4x
//                  the live element count, so consecutive and mildly
//                  strided key streams are captured while memory stays
//                  O(size). Hash-region entries whose keys fall under a
//                  grown limit migrate into the array (counted in
//                  stats().relocations).
//
//   hash region    everything else (sparse, random, or far-ahead keys):
//                  open-addressing linear probing over a power-of-two
//                  slot vector at <= 3/4 load. Erase uses backward-shift
//                  deletion, so the table is tombstone-free — probe
//                  chains never rot under churn and erase-heavy
//                  workloads need no periodic rehash.
//
// Iteration (`for_each`) visits the array region in ascending key order;
// when the hash region is non-empty its entries are visited afterwards,
// also in ascending key order (collected and sorted on the fly — O(h log
// h) for h hash-resident entries, and h == 0 in the consecutive-ID
// common case, where iteration is a straight O(1)-per-step scan). The
// full visit order is therefore ascending by key, deterministically —
// the property LRU eviction scans rest on.
//
// Concurrency: none built in — external synchronization like any
// standard container. Concurrent *const* readers are safe: const find()
// and const for_each() do not touch the probe counters (only mutating
// operations and non-const lookups count), so shared read-mostly tables
// stay race-free under TSan.
//
// stats(): array_hits / hash_hits (probes answered by each region via
// non-const operations) and relocations (entries moved by array-growth
// migration, hash rehash, or backward-shift erase) — the observability
// surface the service exports per pool over the wire.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace wrpt::util {

template <class Value, class Key = std::uint64_t>
class dense_map {
    static_assert(std::is_unsigned_v<Key>,
                  "dense_map keys are unsigned integers");

public:
    struct stats_t {
        std::uint64_t array_hits = 0;   ///< probes answered by the array region
        std::uint64_t hash_hits = 0;    ///< probes answered by the hash region
        std::uint64_t relocations = 0;  ///< entries moved (growth/rehash/shift)
    };

    dense_map() = default;
    dense_map(dense_map&&) noexcept = default;
    dense_map& operator=(dense_map&&) noexcept = default;
    dense_map(const dense_map&) = default;
    dense_map& operator=(const dense_map&) = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /// Upper bound (exclusive) of the directly-indexed key range.
    Key array_limit() const { return array_limit_; }

    bool contains(Key k) const { return find(k) != nullptr; }

    /// Mutating-path lookup: counts an array/hash hit on success.
    Value* find(Key k) {
        if (k < array_limit_) {
            if (!array_bit(k)) return nullptr;
            ++stats_.array_hits;
            return &array_vals_[static_cast<std::size_t>(k)];
        }
        const std::size_t slot = hash_find(k);
        if (slot == npos) return nullptr;
        ++stats_.hash_hits;
        return &hash_slots_[slot].val;
    }

    /// Count-free lookup: safe for concurrent readers of a const map.
    const Value* find(Key k) const {
        if (k < array_limit_) {
            if (!array_bit(k)) return nullptr;
            return &array_vals_[static_cast<std::size_t>(k)];
        }
        const std::size_t slot = hash_find(k);
        return slot == npos ? nullptr : &hash_slots_[slot].val;
    }

    /// Insert a default-constructed value if absent; return the value.
    Value& operator[](Key k) { return *try_emplace(k).first; }

    /// Insert Value(args...) if `k` is absent. Returns the value slot and
    /// whether a fresh insert happened (false = the key already existed;
    /// args are not consumed in that case).
    template <class... Args>
    std::pair<Value*, bool> try_emplace(Key k, Args&&... args) {
        if (Value* v = find(k)) return {v, false};
        return {&insert_fresh(k, Value(std::forward<Args>(args)...)), true};
    }

    /// Insert or overwrite. Returns true when the key was fresh.
    bool insert_or_assign(Key k, Value v) {
        if (Value* existing = find(k)) {
            *existing = std::move(v);
            return false;
        }
        insert_fresh(k, std::move(v));
        return true;
    }

    /// Remove `k` if present. Array erase clears the occupancy bit; hash
    /// erase backward-shifts the probe chain (tombstone-free).
    bool erase(Key k) {
        if (k < array_limit_) {
            if (!array_bit(k)) return false;
            ++stats_.array_hits;
            clear_array_bit(k);
            array_vals_[static_cast<std::size_t>(k)] = Value{};
            --size_;
            return true;
        }
        const std::size_t slot = hash_find(k);
        if (slot == npos) return false;
        ++stats_.hash_hits;
        hash_slots_[slot].val = Value{};
        erase_hash_slot(slot);
        --size_;
        return true;
    }

    /// Drop every entry; capacity (both regions) is retained for reuse.
    void clear() {
        for (Key k = 0; k < array_limit_; ++k) {
            if (!array_bit(k)) continue;
            array_vals_[static_cast<std::size_t>(k)] = Value{};
        }
        std::fill(array_used_.begin(), array_used_.end(), 0u);
        for (std::size_t s = 0; s < hash_slots_.size(); ++s) {
            if (!hash_used_[s]) continue;
            hash_slots_[s] = hash_slot{};
        }
        std::fill(hash_used_.begin(), hash_used_.end(), 0u);
        size_ = 0;
        hash_size_ = 0;
    }

    /// Visit (key, value&) in ascending key order. Do not insert or erase
    /// during the visit.
    template <class Fn>
    void for_each(Fn&& fn) {
        for (Key k = 0; k < array_limit_; ++k)
            if (array_bit(k)) fn(k, array_vals_[static_cast<std::size_t>(k)]);
        if (hash_size_ == 0) return;
        for (const std::size_t s : ordered_hash_slots())
            fn(hash_slots_[s].key, hash_slots_[s].val);
    }

    template <class Fn>
    void for_each(Fn&& fn) const {
        for (Key k = 0; k < array_limit_; ++k)
            if (array_bit(k)) fn(k, array_vals_[static_cast<std::size_t>(k)]);
        if (hash_size_ == 0) return;
        for (const std::size_t s : ordered_hash_slots())
            fn(hash_slots_[s].key, hash_slots_[s].val);
    }

    stats_t stats() const { return stats_; }
    void reset_stats() { stats_ = stats_t{}; }

    /// Entries currently resident in each region (diagnostics/tests).
    std::size_t array_size() const { return size_ - hash_size_; }
    std::size_t hash_size() const { return hash_size_; }

private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    static constexpr Key min_array = 16;

    struct hash_slot {
        Key key = 0;
        Value val{};
    };

    bool array_bit(Key k) const {
        const std::size_t i = static_cast<std::size_t>(k);
        return (array_used_[i >> 6] >> (i & 63)) & 1u;
    }
    void set_array_bit(Key k) {
        const std::size_t i = static_cast<std::size_t>(k);
        array_used_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    void clear_array_bit(Key k) {
        const std::size_t i = static_cast<std::size_t>(k);
        array_used_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    static std::uint64_t mix(Key k) {
        // splitmix64 finalizer: full-width avalanche, so strided and
        // high-bit-heavy keys spread evenly over the power-of-two table.
        std::uint64_t x = static_cast<std::uint64_t>(k);
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    std::size_t home_of(Key k) const {
        return static_cast<std::size_t>(mix(k)) & (hash_slots_.size() - 1);
    }

    std::size_t hash_find(Key k) const {
        if (hash_size_ == 0) return npos;
        const std::size_t mask = hash_slots_.size() - 1;
        for (std::size_t s = home_of(k); hash_used_[s]; s = (s + 1) & mask)
            if (hash_slots_[s].key == k) return s;
        return npos;
    }

    /// Growth policy: capture key k in the array region iff it stays
    /// within 4x the live element count (or under the 16-entry floor) —
    /// consecutive and small-stride ID streams always qualify, sparse
    /// 64-bit keys never do, and the array never exceeds O(4 * size).
    bool array_worthy(Key k) const {
        return k < min_array ||
               (static_cast<std::uint64_t>(k) >> 2) <=
                   static_cast<std::uint64_t>(size_);
    }

    Value& insert_fresh(Key k, Value v) {
        if (k >= array_limit_ && array_worthy(k)) grow_array(k + 1);
        ++size_;
        if (k < array_limit_) {
            set_array_bit(k);
            Value& slot = array_vals_[static_cast<std::size_t>(k)];
            slot = std::move(v);
            return slot;
        }
        if ((hash_size_ + 1) * 4 > hash_slots_.size() * 3) grow_hash();
        const std::size_t mask = hash_slots_.size() - 1;
        std::size_t s = home_of(k);
        while (hash_used_[s]) s = (s + 1) & mask;
        hash_slots_[s].key = k;
        hash_slots_[s].val = std::move(v);
        hash_used_[s] = 1;
        ++hash_size_;
        return hash_slots_[s].val;
    }

    void grow_array(Key need) {
        // Asserted here rather than at class scope so a map member whose
        // value type holds a forward-declared unique_ptr target still
        // compiles; the check runs where the type is complete.
        static_assert(std::is_default_constructible_v<Value>,
                      "dense_map values must be default-constructible");
        Key limit = array_limit_ ? array_limit_ : min_array;
        while (limit < need) limit *= 2;
        array_vals_.resize(static_cast<std::size_t>(limit));
        array_used_.resize((static_cast<std::size_t>(limit) + 63) / 64, 0u);
        array_limit_ = limit;
        if (hash_size_ == 0) return;
        // Migrate hash entries the grown array now covers. Collect first:
        // erase() rearranges the probe chains under iteration.
        std::vector<Key> movers;
        for (std::size_t s = 0; s < hash_slots_.size(); ++s)
            if (hash_used_[s] && hash_slots_[s].key < array_limit_)
                movers.push_back(hash_slots_[s].key);
        for (const Key k : movers) {
            const std::size_t slot = hash_find(k);
            Value v = std::move(hash_slots_[slot].val);
            hash_slots_[slot].val = Value{};
            erase_hash_slot(slot);
            set_array_bit(k);
            array_vals_[static_cast<std::size_t>(k)] = std::move(v);
            ++stats_.relocations;
        }
    }

    /// Backward-shift removal of an occupied hash slot (the value is
    /// assumed already moved out): walk the chain after the hole and pull
    /// back every entry whose home position the hole would cut off, so
    /// the table stays tombstone-free. Adjusts hash_size_ only — the
    /// caller owns size_ and the hit counters.
    void erase_hash_slot(std::size_t slot) {
        hash_used_[slot] = 0;
        --hash_size_;
        const std::size_t mask = hash_slots_.size() - 1;
        std::size_t hole = slot;
        for (std::size_t j = (hole + 1) & mask; hash_used_[j];
             j = (j + 1) & mask) {
            const std::size_t home = home_of(hash_slots_[j].key);
            // `j` may stay put only if its home lies strictly after the
            // hole (cyclically); otherwise the hole breaks its chain.
            const bool reachable =
                ((j - home) & mask) >= ((j - hole) & mask);
            if (reachable) {
                hash_slots_[hole] = std::move(hash_slots_[j]);
                hash_slots_[j].val = Value{};
                hash_used_[hole] = 1;
                hash_used_[j] = 0;
                hole = j;
                ++stats_.relocations;
            }
        }
    }

    void grow_hash() {
        const std::size_t cap =
            hash_slots_.empty() ? 16 : hash_slots_.size() * 2;
        std::vector<hash_slot> old_slots = std::move(hash_slots_);
        std::vector<std::uint8_t> old_used = std::move(hash_used_);
        hash_slots_.clear();
        hash_slots_.resize(cap);  // resize, not assign: Value may be move-only
        hash_used_.assign(cap, 0);
        const std::size_t mask = cap - 1;
        for (std::size_t s = 0; s < old_slots.size(); ++s) {
            if (!old_used[s]) continue;
            std::size_t d = home_of(old_slots[s].key);
            while (hash_used_[d]) d = (d + 1) & mask;
            hash_slots_[d] = std::move(old_slots[s]);
            hash_used_[d] = 1;
            ++stats_.relocations;
        }
    }

    std::vector<std::size_t> ordered_hash_slots() const {
        std::vector<std::size_t> slots;
        slots.reserve(hash_size_);
        for (std::size_t s = 0; s < hash_slots_.size(); ++s)
            if (hash_used_[s]) slots.push_back(s);
        std::sort(slots.begin(), slots.end(),
                  [&](std::size_t a, std::size_t b) {
                      return hash_slots_[a].key < hash_slots_[b].key;
                  });
        return slots;
    }

    // Array region.
    std::vector<Value> array_vals_;
    std::vector<std::uint64_t> array_used_;  ///< occupancy bitmask
    Key array_limit_ = 0;

    // Hash region (power-of-two capacity, linear probing, <= 3/4 load).
    std::vector<hash_slot> hash_slots_;
    std::vector<std::uint8_t> hash_used_;
    std::size_t hash_size_ = 0;

    std::size_t size_ = 0;
    stats_t stats_;
};

}  // namespace wrpt::util
