/**
 * @file
 * W^X executable-memory arena for the trace JIT.
 *
 * The arena is a single anonymous mapping that is *either* writable
 * *or* executable, never both: compilation happens inside a
 * beginWrite()/endWrite() bracket that flips the whole mapping to
 * RW and back to RX. Both flips happen only at safe points — trace
 * compilation runs from the dispatch loop or a formation site, never
 * under a live JIT frame — so no thread ever executes a page that is
 * currently writable.
 *
 * Reclamation is generational, mirroring the code cache's flush
 * counter: the arena is bump-allocated, and when it fills up reset()
 * bumps the generation and rewinds the bump pointer. Compiled traces
 * stamp the generation they were emitted under; an entry stub whose
 * stamp no longer matches generation() must not be called (the bytes
 * may have been reused) and the owning trace is lazily recompiled.
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
     * Map @p bytes of RW memory (rounded up to whole pages). Returns
     * false when the platform cannot provide executable mappings; the
     * JIT then stays disabled. The fresh arena is left in the
     * *writable* state — call endWrite() after the first compile.
     */
    bool init(size_t bytes);

    bool valid() const { return _base != nullptr; }
    size_t used() const { return _used; }
    uint64_t generation() const { return _gen; }

    /** Flip the mapping RX -> RW. Safe points only. */
    void beginWrite();
    /** Flip the mapping RW -> RX (code becomes callable). */
    void endWrite();

    /**
     * Bump-allocate @p bytes (16-byte aligned) for code about to be
     * copied in; requires the writable state. Returns nullptr when
     * the arena is full — the caller resets and retries.
     */
    uint8_t *alloc(size_t bytes);

    /**
     * Discard every compiled trace: bump the generation and rewind
     * the bump pointer. Requires the writable state and a safe point
     * (no JIT frame live anywhere in this VM).
     */
    void reset();

  private:
    uint8_t *_base = nullptr;
    size_t _cap = 0;
    size_t _used = 0;
    uint64_t _gen = 1; ///< 0 is the never-compiled stamp on traces
    bool _writable = false;
};

} // namespace hipstr::jit

#endif // HIPSTR_VM_JIT_ARENA_HH
