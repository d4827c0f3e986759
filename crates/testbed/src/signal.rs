//! Cooperative shutdown on SIGINT/SIGTERM.
//!
//! The long-running subcommands of `msplayer` (`fleet`, `chaos`,
//! `coordinator`, `worker`) want to flush partial artifacts and write
//! their checkpoint before exiting when the operator (or CI) kills them.
//! The handler here does the only async-signal-safe thing possible — flip
//! an atomic — and they poll [`shutdown_requested`] between units of
//! work.
//!
//! This is the one place in the workspace that needs FFI: registering a
//! process signal handler has no std API. The `unsafe` is confined to the
//! two `libc::signal` calls below (the symbol comes from the libc std
//! already links; no new dependency).

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Has SIGINT or SIGTERM been received since
/// [`install_shutdown_handler`] was called?
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Testing/bin hook: simulate a received signal in-process (the handler
/// path itself cannot be driven portably from a unit test).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// The conventional exit code for "terminated by signal N" shells
/// report: `128 + N`. Binaries exiting after a graceful SIGINT flush
/// should still look interrupted to their caller.
pub const SIGINT_EXIT: i32 = 130;

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        super::SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // From the platform libc std already links against.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        // SAFETY: `signal` is the POSIX registration call; the handler
        // only performs an atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {
        // No signal registration off unix; shutdown_requested() simply
        // never fires and the binaries run to completion as before.
    }
}

/// Installs the SIGINT/SIGTERM handler (idempotent). Call once near the
/// top of `main`; poll [`shutdown_requested`] from the work loop.
pub fn install_shutdown_handler() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_flag_roundtrip() {
        install_shutdown_handler();
        // Note: the flag is process-global and other tests never reset
        // it, so only the requested direction can be asserted.
        request_shutdown();
        assert!(shutdown_requested());
    }
}
