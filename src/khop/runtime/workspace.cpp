#include "khop/runtime/workspace.hpp"

namespace khop {

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace khop
