//! `rmi://host:port/name` URLs and the `Naming` convenience API.
//!
//! Mirrors `java.rmi.Naming`: a client resolves a URL to a remote reference
//! in one step, connecting over TCP.

use std::fmt;
use std::sync::Arc;

use brmi_transport::pool::TcpPool;
use brmi_wire::{RemoteError, RemoteErrorKind};

use crate::client::{Connection, RemoteRef};

/// A parsed `rmi://host:port/name` URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RmiUrl {
    /// Server hostname or address.
    pub host: String,
    /// Server TCP port.
    pub port: u16,
    /// Registry binding name.
    pub name: String,
}

impl RmiUrl {
    /// Parses an `rmi://host:port/name` string.
    ///
    /// # Errors
    ///
    /// Returns a protocol-kind [`RemoteError`] for malformed URLs.
    pub fn parse(url: &str) -> Result<Self, RemoteError> {
        let rest = url
            .strip_prefix("rmi://")
            .ok_or_else(|| bad_url(url, "missing rmi:// scheme"))?;
        let (authority, name) = rest
            .split_once('/')
            .ok_or_else(|| bad_url(url, "missing /name part"))?;
        if name.is_empty() {
            return Err(bad_url(url, "empty binding name"));
        }
        let (host, port_str) = authority
            .rsplit_once(':')
            .ok_or_else(|| bad_url(url, "missing :port"))?;
        if host.is_empty() {
            return Err(bad_url(url, "empty host"));
        }
        let port: u16 = port_str.parse().map_err(|_| bad_url(url, "invalid port"))?;
        Ok(RmiUrl {
            host: host.to_owned(),
            port,
            name: name.to_owned(),
        })
    }

    /// The `host:port` authority.
    pub fn authority(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }
}

impl fmt::Display for RmiUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rmi://{}:{}/{}", self.host, self.port, self.name)
    }
}

fn bad_url(url: &str, reason: &str) -> RemoteError {
    RemoteError::new(
        RemoteErrorKind::Protocol,
        format!("invalid rmi url {url:?}: {reason}"),
    )
}

/// `java.rmi.Naming`-style static entry points.
#[derive(Debug)]
pub struct Naming;

impl Naming {
    /// Connects to the server in `url` over TCP and resolves the name,
    /// like `Naming.lookup("rmi://host:port/name")`.
    ///
    /// # Errors
    ///
    /// Connection failures, plus `NotBound` when the name is unknown.
    pub fn lookup(url: &str) -> Result<RemoteRef, RemoteError> {
        let parsed = RmiUrl::parse(url)?;
        let transport = TcpPool::connect(parsed.authority())?;
        let conn = Connection::new(Arc::new(transport));
        conn.lookup(&parsed.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_display() {
        let url = RmiUrl::parse("rmi://localhost:1099/files").unwrap();
        assert_eq!(url.host, "localhost");
        assert_eq!(url.port, 1099);
        assert_eq!(url.name, "files");
        assert_eq!(url.to_string(), "rmi://localhost:1099/files");
        assert_eq!(url.authority(), "localhost:1099");
    }

    #[test]
    fn parse_accepts_nested_names() {
        let url = RmiUrl::parse("rmi://10.0.0.1:80/a/b").unwrap();
        assert_eq!(url.name, "a/b");
    }

    #[test]
    fn parse_rejects_malformed_urls() {
        for bad in [
            "http://h:1/n",
            "rmi://h:1",
            "rmi://h:1/",
            "rmi://h/n",
            "rmi://:1/n",
            "rmi://h:notaport/n",
            "rmi://h:99999/n",
            "",
        ] {
            let err = RmiUrl::parse(bad).unwrap_err();
            assert_eq!(err.kind(), RemoteErrorKind::Protocol, "url: {bad}");
        }
    }

    #[test]
    fn lookup_on_dead_server_is_transport_error() {
        // Port 1 is essentially never listening.
        let err = Naming::lookup("rmi://127.0.0.1:1/x").unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::Transport);
    }
}
