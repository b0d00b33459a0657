// Randomized mixed-operation equivalence suite for util/dense_map.h, in
// the CorrectnessTests style of stgatilov/ArrayWithHash: a weighted
// stream of insert/find/erase/iterate/clear operations is replayed
// simultaneously against the dense_map under test and a
// std::unordered_map oracle, with full-content cross-checks along the
// way. Every randomized case logs its seed on failure so a divergence is
// replayable. Adversarial key generators cover the container's regime
// boundaries: consecutive IDs (pure array region), strided keys (array
// growth heuristics), random 64-bit keys (pure hash region, backward-
// shift erase under churn) and duplicate-heavy narrow ranges (hit/erase/
// reinsert cycling).

#include "util/dense_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace wrpt {
namespace {

using util::dense_map;

// --- directed basics --------------------------------------------------------

TEST(dense_map, insert_find_erase_roundtrip) {
    dense_map<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_TRUE(m.insert_or_assign(0, 10));
    EXPECT_TRUE(m.insert_or_assign(1, 11));
    EXPECT_TRUE(m.insert_or_assign(2, 12));
    EXPECT_FALSE(m.insert_or_assign(1, 21));  // overwrite, not fresh
    EXPECT_EQ(m.size(), 3u);
    ASSERT_NE(m.find(1), nullptr);
    EXPECT_EQ(*m.find(1), 21);
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_TRUE(m.erase(1));
    EXPECT_FALSE(m.erase(1));
    EXPECT_EQ(m.size(), 2u);
    EXPECT_FALSE(m.contains(1));
    EXPECT_TRUE(m.contains(0));
}

TEST(dense_map, consecutive_keys_stay_in_the_array_region) {
    dense_map<std::size_t> m;
    for (std::uint64_t k = 0; k < 1000; ++k)
        m.insert_or_assign(k, static_cast<std::size_t>(k * 3));
    EXPECT_EQ(m.size(), 1000u);
    EXPECT_EQ(m.hash_size(), 0u) << "consecutive IDs must not spill to hash";
    EXPECT_GE(m.array_limit(), 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k)
        ASSERT_EQ(*m.find(k), k * 3);
    EXPECT_EQ(m.stats().hash_hits, 0u);
    EXPECT_GE(m.stats().array_hits, 1000u);
}

TEST(dense_map, sparse_keys_live_in_the_hash_region) {
    dense_map<std::uint64_t> m;
    rng r(0x5eed);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t k = r.next_word() | (1ull << 62);  // far away
        keys.push_back(k);
        m.insert_or_assign(k, k ^ 0xff);
    }
    EXPECT_GT(m.hash_size(), 0u);
    for (const std::uint64_t k : keys) ASSERT_EQ(*m.find(k), k ^ 0xff);
}

TEST(dense_map, array_growth_migrates_hash_entries_and_counts_relocations) {
    dense_map<int> m;
    // Key 40 against an empty map fails the 4x-size heuristic -> hash.
    m.insert_or_assign(40, 1);
    EXPECT_EQ(m.hash_size(), 1u);
    // Filling 0..39 makes 40 array-worthy; the growth that captures it
    // must migrate the hash resident into the array region.
    for (std::uint64_t k = 0; k < 40; ++k)
        m.insert_or_assign(k, static_cast<int>(k));
    EXPECT_EQ(m.hash_size(), 0u);
    EXPECT_EQ(*m.find(40), 1);
    EXPECT_GE(m.stats().relocations, 1u);
}

TEST(dense_map, for_each_visits_in_ascending_key_order) {
    dense_map<int> m;
    // Mix of array-resident (small) and hash-resident (huge) keys.
    const std::uint64_t keys[] = {5,         2,          9,
                                  1ull << 40, 1ull << 33, (1ull << 40) + 7};
    for (const std::uint64_t k : keys)
        m.insert_or_assign(k, static_cast<int>(k & 0xffff));
    std::vector<std::uint64_t> seen;
    m.for_each([&](std::uint64_t k, int&) { seen.push_back(k); });
    std::vector<std::uint64_t> expected(std::begin(keys), std::end(keys));
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(seen, expected);
}

TEST(dense_map, move_only_values_and_operator_brackets) {
    dense_map<std::unique_ptr<int>> m;
    m[3] = std::make_unique<int>(33);
    m.try_emplace(4, std::make_unique<int>(44));
    const auto [slot, fresh] = m.try_emplace(3);  // existing: no overwrite
    EXPECT_FALSE(fresh);
    ASSERT_NE(*slot, nullptr);
    EXPECT_EQ(**slot, 33);
    EXPECT_EQ(**m.find(4), 44);
    EXPECT_TRUE(m.erase(4));
    EXPECT_EQ(m.size(), 1u);
}

TEST(dense_map, clear_retains_capacity_and_resets_contents) {
    dense_map<int> m;
    for (std::uint64_t k = 0; k < 100; ++k) m.insert_or_assign(k, 1);
    m.insert_or_assign(0xdeadbeefcafeull, 2);
    const std::uint64_t limit = m.array_limit();
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.hash_size(), 0u);
    EXPECT_EQ(m.array_limit(), limit);  // capacity retained for reuse
    EXPECT_EQ(m.find(5), nullptr);
    m.insert_or_assign(5, 7);
    EXPECT_EQ(*m.find(5), 7);
}

// --- randomized mixed-operation equivalence vs std::unordered_map -----------

// Key generators for the adversarial patterns.
struct key_pattern {
    const char* name;
    std::uint64_t (*draw)(rng&, std::uint64_t op);
};

const key_pattern kPatterns[] = {
    {"consecutive", [](rng& r, std::uint64_t) { return r.next_word() % 2048; }},
    {"strided",
     [](rng& r, std::uint64_t) { return (r.next_word() % 1024) * 3; }},
    {"random64", [](rng& r, std::uint64_t) { return r.next_word(); }},
    {"duplicate_heavy",
     [](rng& r, std::uint64_t) { return r.next_word() % 17; }},
    {"mixed_regimes",
     [](rng& r, std::uint64_t) -> std::uint64_t {
         // Half dense small IDs, half sparse far keys: exercises the
         // array/hash boundary and growth-time migration.
         const std::uint64_t w = r.next_word();
         return (w & 1) ? (w >> 1) % 512 : (w | (1ull << 50));
     }},
};

void check_equal(const dense_map<std::uint64_t>& dut,
                 const std::unordered_map<std::uint64_t, std::uint64_t>& oracle,
                 std::uint64_t seed, std::uint64_t op) {
    ASSERT_EQ(dut.size(), oracle.size())
        << "seed=" << seed << " op=" << op;
    std::size_t visited = 0;
    std::uint64_t last_key = 0;
    bool first = true;
    dut.for_each([&](std::uint64_t k, const std::uint64_t& v) {
        if (!first) {
            EXPECT_LT(last_key, k)
                << "iteration out of key order, seed=" << seed << " op=" << op;
        }
        first = false;
        last_key = k;
        ++visited;
        const auto it = oracle.find(k);
        ASSERT_NE(it, oracle.end())
            << "phantom key " << k << ", seed=" << seed << " op=" << op;
        ASSERT_EQ(v, it->second)
            << "value mismatch at key " << k << ", seed=" << seed
            << " op=" << op;
    });
    ASSERT_EQ(visited, oracle.size()) << "seed=" << seed << " op=" << op;
}

/// Weighted op mix replayed against the oracle. Weights: find-heavy with
/// steady insert/erase churn, occasional full iteration, rare clear —
/// the serve-path shape.
void run_equivalence(const key_pattern& pattern, std::uint64_t seed,
                     int operations) {
    SCOPED_TRACE(std::string("pattern=") + pattern.name);
    rng r(seed);
    dense_map<std::uint64_t> dut;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;

    for (int op = 0; op < operations; ++op) {
        const std::uint64_t key = pattern.draw(r, op);
        const std::uint64_t roll = r.next_word() % 100;
        if (roll < 35) {  // insert_or_assign
            const std::uint64_t value = r.next_word();
            const bool fresh = dut.insert_or_assign(key, value);
            const bool oracle_fresh = oracle.insert_or_assign(key, value).second;
            ASSERT_EQ(fresh, oracle_fresh)
                << "insert freshness diverged, seed=" << seed << " op=" << op;
        } else if (roll < 45) {  // try_emplace (no overwrite)
            const std::uint64_t value = r.next_word();
            const auto [slot, fresh] = dut.try_emplace(key, value);
            const auto [it, oracle_fresh] = oracle.try_emplace(key, value);
            ASSERT_EQ(fresh, oracle_fresh)
                << "emplace freshness diverged, seed=" << seed << " op=" << op;
            ASSERT_EQ(*slot, it->second)
                << "emplace value diverged, seed=" << seed << " op=" << op;
        } else if (roll < 75) {  // find
            const std::uint64_t* v = dut.find(key);
            const auto it = oracle.find(key);
            ASSERT_EQ(v != nullptr, it != oracle.end())
                << "find presence diverged at key " << key << ", seed=" << seed
                << " op=" << op;
            if (v) {
                ASSERT_EQ(*v, it->second) << "seed=" << seed << " op=" << op;
            }
        } else if (roll < 95) {  // erase
            const bool erased = dut.erase(key);
            const bool oracle_erased = oracle.erase(key) > 0;
            ASSERT_EQ(erased, oracle_erased)
                << "erase diverged at key " << key << ", seed=" << seed
                << " op=" << op;
        } else if (roll < 99) {  // iterate + full cross-check
            check_equal(dut, oracle, seed, op);
        } else {  // clear
            dut.clear();
            oracle.clear();
        }
    }
    check_equal(dut, oracle, seed, operations);
}

TEST(dense_map, randomized_equivalence_against_unordered_map_oracle) {
    for (const key_pattern& pattern : kPatterns)
        for (const std::uint64_t seed : {0x1234ull, 0xfeedull, 0xabc99ull})
            run_equivalence(pattern, seed, 4000);
}

TEST(dense_map, erase_heavy_churn_stays_tombstone_free) {
    // Sustained insert/erase cycling over random 64-bit keys: a
    // tombstone-based table would rot its probe chains; the backward-
    // shift table must answer every lookup correctly forever.
    rng r(0xc0ffee);
    dense_map<std::uint64_t> dut;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    std::vector<std::uint64_t> live;
    for (int round = 0; round < 20000; ++round) {
        if (!live.empty() && (r.next_word() & 1)) {
            const std::size_t at = r.next_word() % live.size();
            const std::uint64_t key = live[at];
            live[at] = live.back();
            live.pop_back();
            ASSERT_TRUE(dut.erase(key)) << "round=" << round;
            oracle.erase(key);
        } else {
            const std::uint64_t key = r.next_word();
            if (dut.insert_or_assign(key, round)) live.push_back(key);
            oracle.insert_or_assign(key, round);
        }
    }
    ASSERT_EQ(dut.size(), oracle.size());
    for (const auto& [k, v] : oracle) {
        const std::uint64_t* got = dut.find(k);
        ASSERT_NE(got, nullptr) << "lost key " << k;
        ASSERT_EQ(*got, v);
    }
}

// --- stats surface -----------------------------------------------------------

TEST(dense_map, stats_attribute_hits_to_the_right_region) {
    dense_map<int> m;
    for (std::uint64_t k = 0; k < 64; ++k) m.insert_or_assign(k, 1);
    m.insert_or_assign(1ull << 40, 2);
    m.reset_stats();
    for (std::uint64_t k = 0; k < 64; ++k) ASSERT_NE(m.find(k), nullptr);
    ASSERT_NE(m.find(1ull << 40), nullptr);
    EXPECT_EQ(m.stats().array_hits, 64u);
    EXPECT_EQ(m.stats().hash_hits, 1u);
    // Misses count nowhere: a failed probe is not a hit.
    EXPECT_EQ(m.find(999), nullptr);
    EXPECT_EQ(m.stats().array_hits, 64u);
    EXPECT_EQ(m.stats().hash_hits, 1u);
}

// --- concurrent const readers (TSan smoke) ----------------------------------

TEST(dense_map, concurrent_const_readers_are_race_free) {
    dense_map<std::uint64_t> m;
    for (std::uint64_t k = 0; k < 512; ++k) m.insert_or_assign(k, k * 7);
    m.insert_or_assign(1ull << 45, 99);
    const dense_map<std::uint64_t>& shared = m;  // const view: count-free

    std::vector<std::thread> readers;
    std::vector<std::uint64_t> sums(4, 0);
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&shared, &sums, t] {
            std::uint64_t sum = 0;
            for (int round = 0; round < 200; ++round) {
                for (std::uint64_t k = 0; k < 512; ++k)
                    sum += *shared.find(k);
                shared.for_each(
                    [&](std::uint64_t, const std::uint64_t& v) { sum += v; });
            }
            sums[static_cast<std::size_t>(t)] = sum;
        });
    }
    for (std::thread& t : readers) t.join();
    for (int t = 1; t < 4; ++t) EXPECT_EQ(sums[0], sums[static_cast<std::size_t>(t)]);
}

}  // namespace
}  // namespace wrpt
