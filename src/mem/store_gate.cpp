#include "store_gate.hpp"

namespace ticsim::mem {

const char *
storeSiteName(StoreSite s)
{
    switch (s) {
      case StoreSite::AppGlobal:
        return "store";
      case StoreSite::UndoPool:
        return "undo-store";
      case StoreSite::CkptHeader:
        return "hdr-store";
    }
    return "?";
}

} // namespace ticsim::mem
