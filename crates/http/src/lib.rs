//! # msim-http — HTTP/1.1 and TLS-timing substrate
//!
//! MSPlayer's data plane is plain HTTP: persistent connections carrying
//! range requests (paper §2, §4). This crate supplies:
//!
//! * [`range`] — RFC 7233 byte ranges (`Range` / `Content-Range`);
//! * [`message`] — request/response types with case-insensitive headers
//!   and plain `Vec<u8>` bodies;
//! * [`wire`] — an HTTP/1.1 serialiser and incremental parser used by the
//!   real-socket testbed;
//! * [`tls`] — the Fig. 1 HTTPS handshake timing model (η, ψ, π and the
//!   `10(θ−1)R₁` fast-path head start).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod message;
pub mod range;
pub mod tls;
pub mod wire;

pub use message::{Headers, Method, Request, Response, StatusCode};
pub use range::{ByteRange, RangeError};
pub use tls::Phase;
pub use wire::{
    decode_request, decode_response, encode_request, encode_request_into, encode_response,
    encode_response_into, Decoded, WireError,
};
