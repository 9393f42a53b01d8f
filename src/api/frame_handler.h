/// \file
/// The seam between transport and application in the serving stack
/// (DESIGN.md §10–§11). A FrameHandler turns one request frame into one
/// response frame — GuidanceApi implements it by dispatching onto the local
/// session service, SessionRouter (src/fleet/) by forwarding to a backend
/// shard — and the EventApiServer (api/event_server.h) feeds every
/// connection's frames through one. veritas_router is literally an
/// EventApiServer over a SessionRouter whose backends are EventApiServers
/// over GuidanceApis.

#ifndef VERITAS_API_FRAME_HANDLER_H_
#define VERITAS_API_FRAME_HANDLER_H_

#include <string>

namespace veritas {

/// One request frame in, one response frame out. Implementations must be
/// thread-safe: the server invokes HandleFrame concurrently for distinct
/// connections, from its dispatch pool.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  virtual std::string HandleFrame(const std::string& request_frame) = 0;
};

}  // namespace veritas

#endif  // VERITAS_API_FRAME_HANDLER_H_
