#include "arena.hh"

#include <cstring>

#include "support/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define HIPSTR_JIT_HAVE_MMAP 1
#endif

namespace hipstr::jit
{

ExecArena::~ExecArena()
{
#if HIPSTR_JIT_HAVE_MMAP
    if (_base != nullptr)
        ::munmap(_base, _cap);
#endif
}

bool
ExecArena::init(size_t bytes)
{
#if HIPSTR_JIT_HAVE_MMAP
    _page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    _cap = (bytes + _page - 1) & ~(_page - 1);
    if (_cap < _page)
        _cap = _page;
    void *p = ::mmap(nullptr, _cap, PROT_READ | PROT_EXEC,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        _cap = 0;
        return false;
    }
    _base = static_cast<uint8_t *>(p);
    _used = 0;
    return true;
#else
    (void)bytes;
    return false;
#endif
}

uint8_t *
ExecArena::alloc(size_t bytes)
{
    hipstr_assert(_base != nullptr);
    size_t aligned = (_used + 15) & ~size_t(15);
    if (aligned + bytes > _cap)
        return nullptr;
    _used = aligned + bytes;
    return _base + aligned;
}

void
ExecArena::install(uint8_t *p, const uint8_t *bytes, size_t n)
{
#if HIPSTR_JIT_HAVE_MMAP
    hipstr_assert(p >= _base && p + n <= _base + _used);
    const size_t lo = static_cast<size_t>(p - _base) & ~(_page - 1);
    const size_t hi =
        (static_cast<size_t>(p - _base) + n + _page - 1) & ~(_page - 1);
    if (::mprotect(_base + lo, hi - lo, PROT_READ | PROT_WRITE) != 0)
        hipstr_fatal("jit arena: mprotect(RW) failed");
    std::memcpy(p, bytes, n);
    if (::mprotect(_base + lo, hi - lo, PROT_READ | PROT_EXEC) != 0)
        hipstr_fatal("jit arena: mprotect(RX) failed");
#else
    (void)p;
    (void)bytes;
    (void)n;
#endif
}

void
ExecArena::reset()
{
    hipstr_assert(_base != nullptr);
    ++_gen;
    _used = 0;
}

} // namespace hipstr::jit
