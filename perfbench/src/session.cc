#include "session.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <streambuf>
#include <unistd.h>

#include "serve/protocol.h"
#include "support/error.h"

namespace perfbench {

using namespace calyx;

/** A streambuf over a pipe end: reads fill a 64 KiB buffer, writes
 * go out on sync() (writeFrame flushes) or when the buffer is full. */
class FdBuf : public std::streambuf
{
  public:
    explicit FdBuf(int fd);
    ~FdBuf() override;
    FdBuf(const FdBuf &) = delete;
    FdBuf &operator=(const FdBuf &) = delete;

  protected:
    int_type underflow() override;
    int_type overflow(int_type c) override;
    int sync() override;

  private:
    bool flushOut();

    int fd;
    char in[1 << 16];
    char out[1 << 16];
};

FdBuf::FdBuf(int fd) : fd(fd)
{
    setg(in, in, in);
    setp(out, out + sizeof out);
}

FdBuf::~FdBuf() { flushOut(); }

FdBuf::int_type
FdBuf::underflow()
{
    ssize_t n;
    do {
        n = ::read(fd, in, sizeof in);
    } while (n < 0 && errno == EINTR);
    if (n <= 0)
        return traits_type::eof();
    setg(in, in, in + n);
    return traits_type::to_int_type(in[0]);
}

FdBuf::int_type
FdBuf::overflow(int_type c)
{
    if (!flushOut())
        return traits_type::eof();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
        *pptr() = traits_type::to_char_type(c);
        pbump(1);
    }
    return traits_type::not_eof(c);
}

int
FdBuf::sync()
{
    return flushOut() ? 0 : -1;
}

bool
FdBuf::flushOut()
{
    const char *p = pbase();
    while (p < pptr()) {
        ssize_t n = ::write(fd, p, pptr() - p);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += n;
    }
    setp(out, out + sizeof out);
    return true;
}

Session::Session(const sim::SimProgram &prog, const serve::ServeOptions &opts)
{
    if (::pipe2(reqFd, O_CLOEXEC) != 0 || ::pipe2(respFd, O_CLOEXEC) != 0)
        fatal("perfbench: pipe: ", std::strerror(errno));
    serverIn = std::make_unique<FdBuf>(reqFd[0]);
    serverOut = std::make_unique<FdBuf>(respFd[1]);
    clientIn = std::make_unique<FdBuf>(respFd[0]);
    clientOut = std::make_unique<FdBuf>(reqFd[1]);
    serverIs = std::make_unique<std::istream>(serverIn.get());
    serverOs = std::make_unique<std::ostream>(serverOut.get());
    clientIs = std::make_unique<std::istream>(clientIn.get());
    clientOs = std::make_unique<std::ostream>(clientOut.get());
    server = std::thread([this, &prog, opts] {
        try {
            serve::serve(prog, *serverIs, *serverOs, opts);
        } catch (const std::exception &e) {
            serverError = e.what();
        }
        serverOs->flush();
        // Wake a client blocked on a response that will never come.
        ::close(respFd[1]);
        respFd[1] = -1;
    });
}

Session::~Session()
{
    clientOs->flush();
    ::close(reqFd[1]);
    reqFd[1] = -1;
    server.join();
    for (int fd : {reqFd[0], respFd[0], respFd[1]}) {
        if (fd >= 0)
            ::close(fd);
    }
}

std::string
Session::roundTrip(const std::string &payload)
{
    serve::writeFrame(*clientOs, payload);
    std::string resp, err;
    if (serve::readFrame(*clientIs, resp, err) != serve::FrameStatus::Ok) {
        fatal("perfbench: serve session ended: ",
              serverError.empty() ? err : serverError);
    }
    return resp;
}

} // namespace perfbench
