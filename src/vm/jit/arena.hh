/**
 * @file
 * W^X executable-memory arena for the trace JIT.
 *
 * The arena is a single anonymous mapping whose pages are each
 * *either* writable *or* executable, never both, and it has no
 * writable alias. The mapping is read+execute at rest; install()
 * flips RW only the one or two pages a compiled body's copy covers,
 * copies it in, and flips them back to RX. Installs happen only at
 * safe points — trace compilation runs from the dispatch loop, never
 * under a live JIT frame — so no thread ever executes a page that is
 * currently writable, even when a flipped page also holds the tail
 * of an older body.
 *
 * Reclamation is generational, mirroring the code cache's flush
 * counter: the arena is bump-allocated (dense, 16-byte aligned), and
 * reset() bumps the generation and rewinds the bump pointer — when
 * the arena fills up, and when every live trace has been retired.
 * Compiled traces stamp the generation they were emitted under; an
 * entry stub whose stamp no longer matches generation() must not be
 * called (the bytes may have been reused) and the owning trace is
 * lazily recompiled.
 */

#ifndef HIPSTR_VM_JIT_ARENA_HH
#define HIPSTR_VM_JIT_ARENA_HH

#include <cstddef>
#include <cstdint>

namespace hipstr::jit
{

class ExecArena
{
  public:
    ExecArena() = default;
    ~ExecArena();

    ExecArena(const ExecArena &) = delete;
    ExecArena &operator=(const ExecArena &) = delete;

    /**
     * Map @p bytes of RX memory (rounded up to whole pages). Returns
     * false when the platform cannot provide executable mappings; the
     * JIT then stays disabled.
     */
    bool init(size_t bytes);

    bool valid() const { return _base != nullptr; }
    size_t used() const { return _used; }
    uint64_t generation() const { return _gen; }

    /**
     * Bump-allocate @p bytes (16-byte aligned) for a body about to be
     * installed. Returns nullptr when the arena is full — the caller
     * resets and retries.
     */
    uint8_t *alloc(size_t bytes);

    /**
     * Copy @p n bytes of code to @p p (an alloc() result of at least
     * @p n bytes): flip the pages [p, p+n) covers RW, copy, flip them
     * back RX. Safe points only — code sharing those pages is not
     * executable during the copy.
     */
    void install(uint8_t *p, const uint8_t *bytes, size_t n);

    /**
     * Discard every compiled body: bump the generation and rewind
     * the bump pointer. Safe points only (no JIT frame live anywhere
     * in this VM).
     */
    void reset();

  private:
    uint8_t *_base = nullptr;
    size_t _cap = 0;
    size_t _page = 0;
    size_t _used = 0;
    uint64_t _gen = 1; ///< 0 is the never-compiled stamp on traces
};

} // namespace hipstr::jit

#endif // HIPSTR_VM_JIT_ARENA_HH
