#ifndef CASPER_UTIL_THREAD_ANNOTATIONS_H_
#define CASPER_UTIL_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis annotations (the compile-time contract layer
/// for the chunk-latch protocol).
///
/// These macros attach capability semantics to the engine's latches so that
/// `-Wthread-safety` turns the locking discipline — "`*Locked` internals
/// require the engine latch", "chunk data is only touched under that chunk's
/// latch" — from reviewed prose into build errors. The macros expand to
/// nothing on compilers without the attributes (gcc, MSVC), so annotated
/// headers stay portable; enforcement happens on the clang CI leg via the
/// `CASPER_TSA` CMake option (see README "Static analysis").
///
/// Naming and semantics follow the clang documentation and abseil's
/// `thread_annotations.h`:
/// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__) && defined(__has_attribute)
#define CASPER_TSA_ATTRIBUTE__(x) __has_attribute(x)
#else
#define CASPER_TSA_ATTRIBUTE__(x) 0
#endif

#if CASPER_TSA_ATTRIBUTE__(capability)
#define CASPER_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define CASPER_THREAD_ANNOTATION__(x)  // no-op off clang
#endif

/// Marks a class as a capability (a latch / mutex-like object). The string
/// names the capability kind in diagnostics, e.g. "chunk latch".
#define CAPABILITY(x) CASPER_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability (SharedChunkGuard / ExclusiveChunkGuard).
#define SCOPED_CAPABILITY CASPER_THREAD_ANNOTATION__(scoped_lockable)

/// Declares that a data member is protected by the given capability: reads
/// require the capability held (shared or exclusive), writes require it held
/// exclusively.
#define GUARDED_BY(x) CASPER_THREAD_ANNOTATION__(guarded_by(x))

/// Like GUARDED_BY, but protects the data *pointed to* by a pointer member.
#define PT_GUARDED_BY(x) CASPER_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function precondition: caller must hold the capability exclusively
/// (the annotation for `*Locked` internals behind exclusive latch holds).
#define REQUIRES(...) \
  CASPER_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function precondition: caller must hold the capability at least shared.
#define REQUIRES_SHARED(...) \
  CASPER_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively and does not release it.
#define ACQUIRE(...) CASPER_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function acquires the capability in shared mode.
#define ACQUIRE_SHARED(...) \
  CASPER_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// Function releases an exclusively held capability.
#define RELEASE(...) CASPER_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function releases a shared-held capability.
#define RELEASE_SHARED(...) \
  CASPER_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Function releases a capability held in either mode (used by guard
/// destructors, which must type-check for whichever mode the guard took).
#define RELEASE_GENERIC(...) \
  CASPER_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

/// Function attempts the capability; holds it (in the stated mode) iff the
/// return value equals the first argument.
#define TRY_ACQUIRE(...) \
  CASPER_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  CASPER_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (guards against
/// self-deadlock on non-reentrant latches).
#define EXCLUDES(...) CASPER_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability IS held exclusively from this call on —
/// the escape hatch for contracts the analysis cannot follow (callbacks
/// invoked under a latch taken by the caller, quiescent-only test hooks).
/// It is scoped to one capability, and the implementation can still
/// runtime-check a necessary condition. There is deliberately no macro that
/// switches the analysis off for a whole function.
#define ASSERT_CAPABILITY(x) \
  CASPER_THREAD_ANNOTATION__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  CASPER_THREAD_ANNOTATION__(assert_shared_capability(x))

/// Declares that a function returns a reference to the given capability
/// (accessor functions exposing a latch).
#define RETURN_CAPABILITY(x) CASPER_THREAD_ANNOTATION__(lock_returned(x))

#endif  // CASPER_UTIL_THREAD_ANNOTATIONS_H_
