/**
 * @file
 * Data-oriented inner loops of the replay engine.
 *
 * The replay hot path is dominated by two streaming passes over the
 * structure-of-arrays dynamic trace: counting the records whose flags
 * byte says executed, and packing that bit into a 64-bit bit-plane
 * that the executors then consume with popcount sweeps and bit scans
 * instead of per-record branches.
 *
 * Both passes live in this translation unit so a single TU can be
 * compiled with the vectorizer enabled and its report checked by CI
 * (scripts/check.sh vectorize-report): the classification loop is the
 * designated must-vectorize loop. Keep it free of branches, function
 * calls, and aliasing so the compiler can prove it vectorizable.
 */

#ifndef RFH_SIM_REPLAY_KERNELS_H
#define RFH_SIM_REPLAY_KERNELS_H

#include <cstddef>
#include <cstdint>

namespace rfh {

/**
 * Count the records of @p n replay flags bytes that executed (bit 0)
 * in one streaming pass.
 *
 * This is the vectorize-report gated loop (see file comment).
 */
std::uint64_t countExecutedRecords(const std::uint8_t *flags,
                                   std::size_t n);

/**
 * Pack the executed bit of the flags stream into a 64-bit bit-plane:
 * bit (t % 64) of word (t / 64) of @p execWords is record @p t's.
 * @p execWords must have room for (n + 63) / 64 words; trailing bits
 * of the last word are zero.
 */
void packExecutedPlane(const std::uint8_t *flags, std::size_t n,
                       std::uint64_t *execWords);

/**
 * Histogram the dynamic stream by static instruction: bumps
 * @p histAll[lin[t]] once per record. @p histAll must be zeroed by
 * the caller and sized to the kernel's instruction count.
 */
void histogramRecords(const std::int32_t *lin, std::size_t n,
                      std::uint32_t *histAll);

/**
 * For every CLEAR bit of @p words (bits [0, n)), bump
 * @p hist[lin[t]] — used to histogram the rare not-executed records
 * so the executed histogram is histAll - histOff.
 */
void histogramClearBits(const std::uint64_t *words,
                        const std::int32_t *lin, std::size_t n,
                        std::uint32_t *hist);

} // namespace rfh

#endif // RFH_SIM_REPLAY_KERNELS_H
