#include "calibrate.hh"

#include <algorithm>
#include <map>
#include <numeric>
#include <random>

#include "bench.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kKeys = 4096;

/** Keeps the kernel's result alive. */
volatile std::uint64_t sink;

} // namespace

Calibration::Calibration() : keys_(kKeys)
{
    // 0..kKeys-1 in a fixed shuffled order, the same on every seed.
    std::iota(keys_.begin(), keys_.end(), 0u);
    std::mt19937_64 rng(0x5eedca11u);
    std::shuffle(keys_.begin(), keys_.end(), rng);
}

double
Calibration::timeOnceNs() const
{
    const auto t0 = Clock::now();
    std::map<std::uint32_t, std::uint32_t> tree;
    for (std::uint32_t k : keys_)
        tree[k] = k;
    std::uint64_t sum = 0;
    for (std::uint32_t k : keys_) {
        const auto it = tree.find(k ^ 1u);
        if (it != tree.end())
            sum += it->second;
    }
    sink = sum;
    return static_cast<double>(nsBetween(t0, Clock::now()));
}

double
Calibration::toReference(int runs) const
{
    std::vector<double> ns;
    for (int i = 0; i < runs; ++i)
        ns.push_back(timeOnceNs());
    std::nth_element(ns.begin(), ns.begin() + runs / 2, ns.end());
    return kReferenceNs / ns[static_cast<std::size_t>(runs / 2)];
}

} // namespace perfbench
