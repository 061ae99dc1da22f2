#include "khop/runtime/workspace.hpp"

#include "khop/runtime/thread_pool.hpp"

namespace khop {

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

void for_each_index(std::size_t count, Workspace& ws, ThreadPool* pool,
                    const std::function<void(std::size_t, Workspace&)>& body) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) body(i, ws);
    return;
  }
  parallel_for_throwing(*pool, count,
                        [&](std::size_t i) { body(i, tls_workspace()); });
}

}  // namespace khop
