#include "src/obs/reset.h"

#include "src/labels/intern.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace asbestos {
namespace obs {

void ResetAll() {
  Registry::Get().ResetValues();
  EventLog::Get().Clear();
  CycleProfiler::Get().Clear();
  internal::ResetLubMemo();
}

}  // namespace obs
}  // namespace asbestos
