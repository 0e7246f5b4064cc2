#include "port.hpp"

namespace ticsim::mem::detail {

constinit thread_local const MemPort *g_port = nullptr;

} // namespace ticsim::mem::detail
