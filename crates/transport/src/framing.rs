//! Length-prefixed frame I/O shared by every socket transport.
//!
//! A frame travels as a 4-byte little-endian length followed by the encoded
//! frame bytes. The helpers here are used by the blocking client
//! ([`crate::pool::TcpPool`]) and the multiplexed client
//! ([`crate::mux::MuxClient`]); the reactor server ([`crate::reactor`])
//! shares the constants but parses frames incrementally out of its
//! nonblocking read buffer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use brmi_wire::codec::WireCodec;
use brmi_wire::protocol::Frame;

/// Maximum accepted frame size; larger frames indicate a protocol error.
pub(crate) const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Reused frame buffers are allowed to keep this much capacity between
/// frames; anything larger (a one-off bulk payload) is released after the
/// round trip so an outlier frame cannot pin tens of megabytes per
/// connection for its lifetime.
pub(crate) const KEEP_BUF: usize = 256 * 1024;

/// Granularity of body reads. The length prefix is untrusted until the
/// payload actually arrives, so the readers below grow their buffer one
/// chunk at a time instead of pre-allocating the declared length — a
/// malformed 64 MB prefix from a peer that then stalls or disconnects costs
/// at most one chunk of memory.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Correlation-envelope flag: set in the 4-byte length prefix when an
/// 8-byte request id follows the prefix (before the frame body). The
/// multiplexed client ([`crate::mux::MuxClient`]) tags every request this
/// way and the reactor server echoes the id on the reply, so many callers
/// can share one socket. Unambiguous because [`MAX_FRAME`] leaves the high
/// bits of a legitimate length zero.
pub(crate) const MUX_FLAG: u32 = 0x8000_0000;

/// Size of the correlation id that follows a [`MUX_FLAG`]-tagged prefix.
pub(crate) const MUX_ID_LEN: usize = 8;

/// Most slices handed to one `write_vectored` call (the kernel caps iovec
/// counts at `IOV_MAX`, typically 1024; staying under it avoids `EINVAL`).
const MAX_IOV: usize = 1024;

/// Writes every buffer fully, coalescing them into as few vectored
/// syscalls as the socket accepts (one, absent partial writes). Returns
/// the number of `write_vectored` calls performed — the syscall count the
/// mux bench reports.
pub(crate) fn write_all_vectored<W: Write + ?Sized>(
    writer: &mut W,
    bufs: &[&[u8]],
) -> std::io::Result<usize> {
    use std::io::IoSlice;
    let mut syscalls = 0usize;
    let mut buf_idx = 0usize;
    let mut offset = 0usize;
    while buf_idx < bufs.len() {
        if offset >= bufs[buf_idx].len() {
            buf_idx += 1;
            offset = 0;
            continue;
        }
        let mut slices = Vec::with_capacity((bufs.len() - buf_idx).min(MAX_IOV));
        slices.push(IoSlice::new(&bufs[buf_idx][offset..]));
        for buf in bufs[buf_idx + 1..].iter().take(MAX_IOV - 1) {
            slices.push(IoSlice::new(buf));
        }
        match writer.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted no bytes",
                ))
            }
            Ok(mut n) => {
                syscalls += 1;
                while n > 0 {
                    let remaining = bufs[buf_idx].len() - offset;
                    if n >= remaining {
                        n -= remaining;
                        buf_idx += 1;
                        offset = 0;
                    } else {
                        offset += n;
                        n = 0;
                    }
                }
            }
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(syscalls)
}

/// Shrinks an oversized reused buffer back to the retention threshold.
pub(crate) fn trim_buf(buf: &mut Vec<u8>) {
    if buf.capacity() > KEEP_BUF {
        buf.truncate(KEEP_BUF);
        buf.shrink_to(KEEP_BUF);
    }
}

/// Encodes `frame` into `buf` (cleared, capacity kept) and writes it as a
/// length-prefixed frame — prefix and body in one vectored write, so a
/// steady-state send costs a single syscall instead of two `write_all`s.
/// Reusing `buf` across frames makes sends allocation-free. Returns the
/// number of payload bytes written (excluding the 4-byte prefix).
pub(crate) fn write_frame(
    stream: &mut TcpStream,
    frame: &Frame,
    buf: &mut Vec<u8>,
) -> std::io::Result<usize> {
    frame.encode_into(buf);
    let len = u32::try_from(buf.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large"))?;
    write_all_vectored(stream, &[&len.to_le_bytes(), buf])?;
    stream.flush()?;
    Ok(buf.len())
}

/// Reads one length-prefixed frame into `buf` (cleared, capacity kept).
/// Returns `Ok(false)` on a clean EOF between frames. The caller decodes
/// `buf` owned (client side) or borrowed (server dispatch side).
///
/// The declared length is validated against [`MAX_FRAME`] but never
/// pre-allocated: the body is read in [`READ_CHUNK`] steps, growing the
/// buffer only as bytes actually arrive.
pub(crate) fn read_frame_bytes(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        // A clean EOF between frames means the peer closed the connection.
        Err(err) if err.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(err) => return Err(err),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds maximum"),
        ));
    }
    read_body_chunked(stream, len as usize, buf)?;
    Ok(true)
}

/// Reads exactly `len` body bytes into `buf` (cleared, capacity kept),
/// growing one [`READ_CHUNK`] at a time — the declared length is untrusted
/// until the bytes actually arrive, so it is never pre-allocated. Shared
/// by [`read_frame_bytes`] and the mux client's reply reader.
pub(crate) fn read_body_chunked(
    stream: &mut TcpStream,
    len: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    buf.clear();
    while buf.len() < len {
        let step = READ_CHUNK.min(len - buf.len());
        let filled = buf.len();
        buf.resize(filled + step, 0);
        stream.read_exact(&mut buf[filled..])?;
    }
    Ok(())
}

pub(crate) fn decode_error(err: brmi_wire::WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string())
}

/// A connected client socket plus its reused frame buffers. One outstanding
/// request at a time, so the scratch buffers can live with the stream:
/// steady-state round trips allocate nothing.
pub(crate) struct ClientConn {
    pub(crate) stream: TcpStream,
    write_buf: Vec<u8>,
    read_buf: Vec<u8>,
}

/// Byte counts observed during one [`ClientConn::round_trip`].
pub(crate) struct RoundTripBytes {
    pub(crate) sent: usize,
    pub(crate) received: usize,
}

impl ClientConn {
    /// Dials `addr` with `TCP_NODELAY` set, trying every resolved
    /// candidate address until one connects (std's `TcpStream::connect`
    /// semantics — a hostname with both AAAA and A records falls through
    /// to the address that works). Returns the connection and the address
    /// that accepted, so redials can go straight there.
    pub(crate) fn dial_resolved(
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<(ClientConn, SocketAddr)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok((
            ClientConn {
                stream,
                write_buf: Vec::new(),
                read_buf: Vec::new(),
            },
            peer,
        ))
    }

    /// Probes whether an idle pooled connection is still usable, without
    /// consuming any bytes. A server that closed the connection while it
    /// sat in the pool leaves an EOF (or error) observable here; unread
    /// data outside a round trip means protocol desync. Either way the
    /// connection must be discarded *before* a request is written to it —
    /// detecting staleness up front is what lets the pool avoid
    /// ambiguous-state retries entirely.
    pub(crate) fn is_live(&mut self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let mut probe = [0u8; 1];
        let live = matches!(
            self.stream.peek(&mut probe),
            Err(ref err) if err.kind() == std::io::ErrorKind::WouldBlock
        );
        live && self.stream.set_nonblocking(false).is_ok()
    }

    /// One request/reply exchange. On success the reply frame and the byte
    /// counts are returned; on failure the connection should be discarded.
    pub(crate) fn round_trip(&mut self, frame: &Frame) -> std::io::Result<(Frame, RoundTripBytes)> {
        let sent = write_frame(&mut self.stream, frame, &mut self.write_buf)?;
        let reply = match read_frame_bytes(&mut self.stream, &mut self.read_buf)? {
            true => Frame::from_wire_bytes(&self.read_buf).map_err(decode_error)?,
            false => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "connection closed by server",
                ))
            }
        };
        let received = self.read_buf.len();
        trim_buf(&mut self.write_buf);
        trim_buf(&mut self.read_buf);
        Ok((reply, RoundTripBytes { sent, received }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn trim_buf_releases_outlier_capacity_only() {
        let mut outlier = vec![0u8; 4 * 1024 * 1024];
        trim_buf(&mut outlier);
        assert!(outlier.capacity() <= KEEP_BUF);
        let mut steady = Vec::with_capacity(1024);
        steady.push(1u8);
        let capacity = steady.capacity();
        trim_buf(&mut steady);
        assert_eq!(steady.capacity(), capacity, "small buffers keep capacity");
        assert_eq!(steady, vec![1u8]);
    }

    /// A malicious peer declaring a huge frame and then hanging up must not
    /// make the reader allocate the declared length up front.
    #[test]
    fn huge_length_prefix_does_not_preallocate() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            // Declare just under MAX_FRAME, send only a handful of bytes.
            peer.write_all(&(MAX_FRAME - 1).to_le_bytes()).unwrap();
            peer.write_all(&[0u8; 16]).unwrap();
            // Dropping the socket cuts the body short.
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut buf = Vec::new();
        let err = read_frame_bytes(&mut stream, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(
            buf.capacity() <= 2 * READ_CHUNK,
            "reader must grow chunk-wise, got capacity {}",
            buf.capacity()
        );
        sender.join().unwrap();
    }

    /// A writer that takes one byte per call forces `write_all_vectored`
    /// through every partial-write advance path (mid-slice, slice
    /// boundary, trailing slice).
    struct OneBytePerCall(Vec<u8>);

    impl Write for OneBytePerCall {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(&buf[..1.min(buf.len())]);
            Ok(1.min(buf.len()))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        let mut sink = OneBytePerCall(Vec::new());
        let bufs: [&[u8]; 4] = [b"ab", b"", b"cde", b"f"];
        let syscalls = write_all_vectored(&mut sink, &bufs).unwrap();
        assert_eq!(sink.0, b"abcdef");
        assert_eq!(syscalls, 6, "one syscall per accepted byte");
        let mut whole = Vec::new();
        assert_eq!(write_all_vectored(&mut whole, &bufs).unwrap(), 1);
        assert_eq!(whole, b"abcdef");
    }

    #[test]
    fn over_limit_length_prefix_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            peer.write_all(&u32::MAX.to_le_bytes()).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut buf = Vec::new();
        let err = read_frame_bytes(&mut stream, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        sender.join().unwrap();
    }
}
