#ifndef PERFBENCH_SESSION_H
#define PERFBENCH_SESSION_H

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <thread>

#include "serve/server.h"

namespace perfbench {

class FdBuf;

/**
 * One `serve::serve` session on its own thread, talking over two pipes
 * exactly as `futil --serve` talks over stdin/stdout. The caller is a
 * closed-loop client: roundTrip() sends one frame and blocks until the
 * response frame has been read. Destruction closes the request pipe,
 * which the server reads as a clean end of stream, and joins it.
 */
class Session
{
  public:
    Session(const calyx::sim::SimProgram &prog,
            const calyx::serve::ServeOptions &opts);
    ~Session();
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Send `payload`, return the response payload. */
    std::string roundTrip(const std::string &payload);

  private:
    int reqFd[2] = {-1, -1};
    int respFd[2] = {-1, -1};
    std::unique_ptr<FdBuf> serverIn, serverOut, clientIn, clientOut;
    std::unique_ptr<std::istream> serverIs, clientIs;
    std::unique_ptr<std::ostream> serverOs, clientOs;
    std::string serverError; ///< Written by the server thread only.
    std::thread server;      ///< Declared last: uses every member above.
};

} // namespace perfbench

#endif // PERFBENCH_SESSION_H
