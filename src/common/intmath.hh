/**
 * @file
 * Small integer-math helpers used throughout the simulator.
 */

#ifndef FAFNIR_COMMON_INTMATH_HH
#define FAFNIR_COMMON_INTMATH_HH

#include <bit>
#include <cstdint>

#include "logging.hh"

namespace fafnir
{

/** True if @p n is a power of two (0 is not). */
constexpr bool
isPowerOf2(std::uint64_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/** Floor of log2(@p n), and 0 for @p n = 0. */
constexpr unsigned
floorLog2(std::uint64_t n)
{
    return n == 0 ? 0 : static_cast<unsigned>(std::bit_width(n)) - 1;
}

/** Ceiling of @p a / @p b for positive integers. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Extract bits [first, last] (inclusive, last >= first) of @p value. */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned last, unsigned first)
{
    const std::uint64_t mask = (last - first >= 63)
        ? ~std::uint64_t(0)
        : ((std::uint64_t(1) << (last - first + 1)) - 1);
    return (value >> first) & mask;
}

} // namespace fafnir

#endif // FAFNIR_COMMON_INTMATH_HH
