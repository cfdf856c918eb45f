//! Length-prefixed TCP transport.
//!
//! Every rank binds one loopback/LAN listener. The mesh is wired
//! lower-dials-higher: rank `i` dials every rank `j > i` (announcing
//! itself with a tiny hello preamble) and accepts exactly `i` inbound
//! connections from lower ranks, so each ordered pair shares one
//! full-duplex stream and the two dial directions can never deadlock.
//! One reader thread per peer turns the byte stream back into
//! [`Frame`]s and feeds the [`FrameSink`]; writes go through a
//! per-peer mutex so concurrent senders cannot interleave frame bytes.
//!
//! Failure semantics: EOF without a Goodbye frame, a connection reset,
//! or framing damage (bad magic/version/kind/length) tears the link
//! down and reports `link_down(src, clean=false)` — the sink treats
//! that as rank death. A payload checksum mismatch with an intact
//! header is *not* link damage: the frame is delivered marked corrupt
//! so the receive path can surface `CorruptPayload` instead of hanging.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use super::frame::{Frame, FrameError, FrameKind, HEADER_LEN};
use super::{FrameSink, LinkCounters, LinkError, LinkStat};

/// Hello preamble magic: the dialer announces its rank before frames flow.
const HELLO_MAGIC: u32 = 0x5248_4C4F;
/// How long rendezvous (dial + accept of the full mesh) may take.
const WIRE_DEADLINE: Duration = Duration::from_secs(60);

/// A bound-but-unwired listener. Binding is split from wiring so a
/// launcher can collect every rank's address first and distribute the
/// full list before any rank starts dialing.
pub struct TcpBootstrap {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpBootstrap {
    /// Binds an ephemeral loopback listener for this rank.
    pub fn bind() -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        Ok(Self { listener, addr })
    }

    /// The address peers should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wires the full mesh for `my_rank` out of `addrs` (one address per
    /// rank, `addrs[my_rank]` being this listener) and starts the reader
    /// threads feeding `sink`.
    pub fn connect(
        self,
        my_rank: usize,
        addrs: &[SocketAddr],
        sink: Arc<dyn FrameSink>,
    ) -> std::io::Result<Arc<TcpTransport>> {
        let world = addrs.len();
        assert!(my_rank < world, "rank {my_rank} outside world of {world}");
        let deadline = Instant::now() + WIRE_DEADLINE;

        // Accept the `my_rank` inbound links on a helper thread while this
        // thread dials the higher ranks, so no dial order can deadlock.
        let listener = self.listener;
        listener.set_nonblocking(true)?;
        let inbound = my_rank;
        let acceptor = std::thread::Builder::new()
            .name(format!("tcp-accept-{my_rank}"))
            .spawn(move || accept_peers(&listener, inbound, deadline))?;

        let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
        for (peer, addr) in addrs.iter().enumerate().skip(my_rank + 1) {
            let stream = dial(*addr, deadline)?;
            stream.set_nodelay(true)?;
            hello_send(&stream, my_rank)?;
            streams[peer] = Some(stream);
        }
        let accepted = acceptor
            .join()
            .map_err(|_| other("tcp accept thread panicked"))??;
        for (peer, stream) in accepted {
            if peer >= my_rank || streams[peer].is_some() {
                return Err(other(format!("peer announced bogus rank {peer}")));
            }
            stream.set_nodelay(true)?;
            streams[peer] = Some(stream);
        }

        let stopping = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        let mut writers: Vec<Mutex<Option<TcpStream>>> = Vec::with_capacity(world);
        for (peer, slot) in streams.into_iter().enumerate() {
            match slot {
                Some(stream) => {
                    let reader = stream.try_clone()?;
                    let sink = Arc::clone(&sink);
                    let stopping = Arc::clone(&stopping);
                    readers.push(
                        std::thread::Builder::new()
                            .name(format!("tcp-read-{my_rank}<{peer}"))
                            .spawn(move || read_frames(reader, peer, sink, stopping))?,
                    );
                    writers.push(Mutex::new(Some(stream)));
                }
                None => writers.push(Mutex::new(None)),
            }
        }

        Ok(Arc::new(TcpTransport {
            my_rank,
            writers,
            counters: LinkCounters::new(my_rank, world),
            stopping,
            readers: Mutex::new(readers),
        }))
    }
}

/// The wired mesh endpoint for one rank.
pub struct TcpTransport {
    my_rank: usize,
    writers: Vec<Mutex<Option<TcpStream>>>,
    counters: LinkCounters,
    stopping: Arc<AtomicBool>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Queues one frame to world rank `dst`. An error means the link is
    /// down (the process died or the stream is torn); the caller poisons
    /// the job with that rank's identity.
    pub fn send(&self, dst: usize, frame: &Frame) -> Result<(), LinkError> {
        let slot = self.writers.get(dst).ok_or_else(|| LinkError {
            dst,
            detail: format!("rank {dst} outside the mesh"),
        })?;
        let buf = frame.encode();
        let start = Instant::now();
        let mut guard = slot.lock();
        let stream = guard.as_mut().ok_or_else(|| LinkError {
            dst,
            detail: "link closed".to_owned(),
        })?;
        if let Err(e) = stream.write_all(&buf) {
            // The peer is gone; drop the stream so later sends fail fast.
            *guard = None;
            return Err(LinkError {
                dst,
                detail: e.to_string(),
            });
        }
        drop(guard);
        self.counters
            .note(dst, buf.len(), start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Announces a clean shutdown (Goodbye to every live peer), stops the
    /// reader threads and joins them. Idempotent.
    pub fn shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        let goodbye = Frame {
            kind: FrameKind::Goodbye,
            src: self.my_rank as u32,
            dst: 0,
            tag: 0,
            wire_id: 0,
            payload: Vec::new(),
        };
        let bytes = goodbye.encode();
        for (peer, slot) in self.writers.iter().enumerate() {
            let mut guard = slot.lock();
            if let Some(stream) = guard.as_mut() {
                let _ = stream.write_all(&bytes);
                let _ = stream.flush();
                // Unblocks our reader for this peer; the kernel still
                // delivers bytes already written to the peer's side.
                let _ = stream.shutdown(Shutdown::Both);
                let _ = peer;
            }
            *guard = None;
        }
        let readers = std::mem::take(&mut *self.readers.lock());
        let me = std::thread::current().id();
        for handle in readers {
            // A reader can be the last owner of the whole endpoint (via the
            // sink's upgrade) and run this shutdown from Drop — joining
            // itself would deadlock.
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }

    /// Per-destination traffic snapshot for `BENCH_hpl.json` attribution.
    pub fn link_stats(&self) -> Vec<LinkStat> {
        self.counters.snapshot()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reader thread: one inbound stream back into frames.
fn read_frames(
    mut stream: TcpStream,
    src: usize,
    sink: Arc<dyn FrameSink>,
    stopping: Arc<AtomicBool>,
) {
    let mut clean = false;
    loop {
        let mut buf = vec![0u8; HEADER_LEN];
        match stream.read_exact(&mut buf) {
            Ok(()) => {}
            Err(_) => break, // EOF or reset (or our own shutdown)
        }
        let total = match Frame::total_len(&buf) {
            Ok(n) => n,
            Err(_) => {
                // Framing damage: the stream can never resynchronise.
                clean = false;
                break;
            }
        };
        buf.resize(total, 0);
        if stream.read_exact(&mut buf[HEADER_LEN..]).is_err() {
            break;
        }
        match Frame::decode_tolerant(&buf) {
            Ok((frame, _, sum_ok)) => match frame.kind {
                FrameKind::Data => sink.deliver(frame, sum_ok),
                FrameKind::Death => {
                    let phase = String::from_utf8_lossy(&frame.payload).into_owned();
                    sink.peer_death(src, frame.tag as usize, &phase);
                }
                FrameKind::Goodbye => {
                    clean = true;
                }
            },
            Err(FrameError::Checksum { .. }) => {
                unreachable!("tolerant decode keeps checksum failures")
            }
            Err(_) => {
                clean = false;
                break;
            }
        }
    }
    if !stopping.load(Ordering::SeqCst) {
        sink.link_down(src, clean);
    }
}

fn accept_peers(
    listener: &TcpListener,
    count: usize,
    deadline: Instant,
) -> std::io::Result<Vec<(usize, TcpStream)>> {
    let mut peers = Vec::with_capacity(count);
    while peers.len() < count {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let rank = hello_recv(&stream, deadline)?;
                peers.push((rank, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(other(format!(
                        "rendezvous timeout: {}/{count} peers dialed in",
                        peers.len()
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(peers)
}

fn dial(addr: SocketAddr, deadline: Instant) -> std::io::Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() > deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn hello_send(mut stream: &TcpStream, rank: usize) -> std::io::Result<()> {
    let mut buf = [0u8; 8];
    buf[..4].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
    buf[4..].copy_from_slice(&(rank as u32).to_le_bytes());
    stream.write_all(&buf)
}

fn hello_recv(mut stream: &TcpStream, deadline: Instant) -> std::io::Result<usize> {
    let budget = deadline
        .checked_duration_since(Instant::now())
        .unwrap_or(Duration::from_millis(1));
    stream.set_read_timeout(Some(budget))?;
    let mut buf = [0u8; 8];
    stream.read_exact(&mut buf)?;
    stream.set_read_timeout(None)?;
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != HELLO_MAGIC {
        return Err(other(format!("bad hello magic {magic:#010x}")));
    }
    Ok(u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize)
}

fn other(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::frame::Frame;

    struct Collect {
        frames: Mutex<Vec<(Frame, bool)>>,
        deaths: Mutex<Vec<(usize, usize, String)>>,
        downs: Mutex<Vec<(usize, bool)>>,
    }

    impl Collect {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                frames: Mutex::new(Vec::new()),
                deaths: Mutex::new(Vec::new()),
                downs: Mutex::new(Vec::new()),
            })
        }
    }

    impl FrameSink for Collect {
        fn deliver(&self, frame: Frame, sum_ok: bool) {
            self.frames.lock().push((frame, sum_ok));
        }
        fn peer_death(&self, from: usize, dead: usize, phase: &str) {
            self.deaths.lock().push((from, dead, phase.to_owned()));
        }
        fn link_down(&self, src: usize, clean: bool) {
            self.downs.lock().push((src, clean));
        }
    }

    fn wire(world: usize) -> (Vec<Arc<TcpTransport>>, Vec<Arc<Collect>>) {
        let boots: Vec<TcpBootstrap> = (0..world).map(|_| TcpBootstrap::bind().unwrap()).collect();
        let addrs: Vec<SocketAddr> = boots.iter().map(|b| b.addr()).collect();
        let sinks: Vec<Arc<Collect>> = (0..world).map(|_| Collect::new()).collect();
        let mut handles = Vec::new();
        for (rank, boot) in boots.into_iter().enumerate() {
            let addrs = addrs.clone();
            let sink = Arc::clone(&sinks[rank]);
            handles.push(std::thread::spawn(move || {
                boot.connect(rank, &addrs, sink).unwrap()
            }));
        }
        let transports = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (transports, sinks)
    }

    fn data(src: usize, dst: usize, tag: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: src as u32,
            dst: dst as u32,
            tag,
            wire_id: 7,
            payload,
        }
    }

    fn wait_for<F: Fn() -> bool>(cond: F) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for delivery");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn frames_flow_both_directions_across_the_mesh() {
        let (transports, sinks) = wire(3);
        transports[0]
            .send(2, &data(0, 2, 41, vec![1, 2, 3]))
            .unwrap();
        transports[2].send(0, &data(2, 0, 42, vec![9])).unwrap();
        wait_for(|| !sinks[2].frames.lock().is_empty());
        wait_for(|| !sinks[0].frames.lock().is_empty());
        let got = sinks[2].frames.lock();
        assert_eq!(got[0].0.tag, 41);
        assert_eq!(got[0].0.payload, vec![1, 2, 3]);
        assert!(got[0].1, "clean payload passes checksum");
        assert_eq!(sinks[0].frames.lock()[0].0.tag, 42);
        drop(got);
        for t in &transports {
            t.shutdown();
        }
    }

    #[test]
    fn goodbye_marks_link_clean_and_death_frames_propagate() {
        let (transports, sinks) = wire(2);
        let death = Frame {
            kind: FrameKind::Death,
            src: 0,
            dst: 1,
            tag: 0, // dead rank
            wire_id: 0,
            payload: b"fact".to_vec(),
        };
        transports[0].send(1, &death).unwrap();
        wait_for(|| !sinks[1].deaths.lock().is_empty());
        assert_eq!(sinks[1].deaths.lock()[0], (0, 0, "fact".to_owned()));
        transports[0].shutdown();
        wait_for(|| !sinks[1].downs.lock().is_empty());
        assert_eq!(sinks[1].downs.lock()[0], (0, true), "goodbye means clean");
        transports[1].shutdown();
    }

    #[test]
    fn send_stats_attribute_bytes_per_destination() {
        let (transports, sinks) = wire(2);
        transports[0]
            .send(1, &data(0, 1, 7, vec![0u8; 100]))
            .unwrap();
        wait_for(|| !sinks[1].frames.lock().is_empty());
        let stats = transports[0].link_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].dst, 1);
        assert_eq!(stats[0].frames, 1);
        assert!(stats[0].bytes > 100, "frame overhead counted");
        for t in &transports {
            t.shutdown();
        }
    }
}
