//! SIGINT / SIGTERM → [`CancelToken`] for the `recurs` binary, so a long
//! saturation is stopped cooperatively (and reported as a truncated run) and
//! a serve transport drains gracefully, instead of the process being killed
//! mid-write. Only while something polls the token: a handler nothing reads
//! would swallow Ctrl-C.

use recurs_datalog::govern::CancelToken;

#[cfg(unix)]
mod imp {
    use super::CancelToken;
    use std::sync::OnceLock;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: a single atomic store.
        if let Some(t) = TOKEN.get() {
            t.cancel();
        }
    }

    fn set(handler: usize) {
        // SAFETY: `signal` is the C library's, declared with its C
        // signature (a handler is one pointer-sized value); both signal
        // numbers are valid, and `handler` is `SIG_DFL` or `on_signal`, an
        // `extern "C"` function doing only async-signal-safe work.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub(crate) fn install(token: CancelToken) {
        if TOKEN.set(token).is_ok() {
            set(on_signal as extern "C" fn(i32) as usize);
        }
    }

    pub(crate) fn restore_default() {
        if TOKEN.get().is_some() {
            set(SIG_DFL);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install(_token: super::CancelToken) {}
    pub(crate) fn restore_default() {}
}

/// Installs handlers that flip `token` on SIGINT and SIGTERM (once per
/// process; a no-op off unix).
pub fn install(token: CancelToken) {
    imp::install(token);
}

/// Puts both signals back to the default disposition when the command's
/// governed phase is over and nothing polls the token any more, so Ctrl-C
/// kills what is left. A no-op unless [`install`] ran.
pub(crate) fn restore_default() {
    imp::restore_default();
}
