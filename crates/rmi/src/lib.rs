//! # brmi-rmi
//!
//! A synchronous distributed-object substrate: the Rust analogue of Java
//! RMI that the BRMI batching layer (crate `brmi`) extends.
//!
//! The pieces map one-to-one onto RMI's architecture:
//!
//! | Java RMI | here |
//! |---|---|
//! | `Remote` object + reflection dispatch | [`RemoteObject`] skeletons (generated by `remote_interface!`) |
//! | export in the RMI runtime | [`ObjectTable`] |
//! | `rmiregistry` | [`RegistryObject`] at object id 0 |
//! | stub / remote reference | [`RemoteRef`] over a [`Connection`] |
//! | `Naming.lookup("rmi://…")` | [`Naming::lookup`] |
//! | marshalling (`Serializable` by copy, `Remote` by reference) | [`RmiServer::marshal_out`] / [`Value`] model |
//!
//! Two behaviours of RMI that the paper analyses are reproduced exactly:
//!
//! 1. **Remote results are exported and returned as references** — each one
//!    costs an export plus stub marshalling on the wire.
//! 2. **A stub marshalled back to its own server stays a stub**: the server
//!    method receives a loopback proxy, not the original object, so
//!    identity comparisons fail and every call through it re-enters the
//!    middleware (paper Section 4.4).
//!
//! [`Value`]: brmi_wire::Value

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod client;
pub mod dgc;
pub mod journal;
pub mod naming;
pub mod object;
pub mod registry;
pub mod replay;
pub mod server;
pub mod table;

pub use client::{Connection, KeySource, RemoteRef};
pub use dgc::{DgcConfig, DgcServer, DgcStats, LeaseHolder};
pub use journal::{DurableOptions, DurableReport, DurableState, Journal, JournalRecord};
pub use naming::{Naming, RmiUrl};
pub use object::{bad_arity, no_such_method, CallCtx, InArg, Loopback, OutValue, RemoteObject};
pub use registry::RegistryObject;
pub use replay::{ClientReplayState, ReplyCache, ReplyCacheConfig};
pub use server::{BatchFrameHandler, RmiServer};
pub use table::ObjectTable;
