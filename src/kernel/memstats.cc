#include "src/kernel/memstats.h"

namespace asbestos {

namespace {
SessionParkStats g_park_stats;
BindingMemStats g_binding_stats;
}  // namespace

SessionParkStats& MutableSessionParkStats() { return g_park_stats; }
const SessionParkStats& GetSessionParkStats() { return g_park_stats; }

BindingMemStats& MutableBindingMemStats() { return g_binding_stats; }
const BindingMemStats& GetBindingMemStats() { return g_binding_stats; }

}  // namespace asbestos
