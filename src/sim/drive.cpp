#include "sim/drive.h"

#include "core/metrics.h"

namespace rfh {

namespace {

Counter &
counterOf(std::string_view prefix, const char *name)
{
    return globalMetrics().counter(std::string(prefix) + "." + name);
}

} // namespace

DriveMetrics::DriveMetrics(std::string_view prefix)
    : runs_(counterOf(prefix, "runs")),
      replays_(counterOf(prefix, "runs.replay")),
      instrs_(counterOf(prefix, "instrs")),
      deschedules_(counterOf(prefix, "deschedules")),
      wbAccesses_(counterOf(prefix, "wbAccesses")),
      failures_(counterOf(prefix, "verifyFailures"))
{
}

void
DriveMetrics::note(const AccessCounts &counts, bool replay, bool failed)
{
    runs_.add();
    if (replay)
        replays_.add();
    instrs_.add(counts.instructions);
    deschedules_.add(counts.deschedules);
    wbAccesses_.add(counts.wbReads + counts.wbWrites);
    if (failed)
        failures_.add();
}

} // namespace rfh
