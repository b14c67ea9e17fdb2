//! Tag-matched receiving on top of a raw [`Transport`].
//!
//! Layer 2 frequently waits for a message with a specific tag (e.g. the
//! master worker gathering `PARTIAL_RESULT`s) while unrelated traffic (DMS
//! peer requests) may arrive interleaved. [`Endpoint`] buffers
//! non-matching messages so selective receives never drop anything.

use crate::transport::{CommError, Message, Rank, Tag, Transport};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A transport plus a reorder buffer for tag-selective receives.
pub struct Endpoint<T: Transport> {
    inner: T,
    buffered: VecDeque<Message>,
}

impl<T: Transport> Endpoint<T> {
    pub fn new(inner: T) -> Self {
        Endpoint {
            inner,
            buffered: VecDeque::new(),
        }
    }

    pub fn rank(&self) -> Rank {
        self.inner.rank()
    }

    pub fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    pub fn send(&self, to: Rank, tag: Tag, payload: bytes::Bytes) -> Result<(), CommError> {
        self.inner.send(to, tag, payload)
    }

    /// Receives the next message regardless of tag, honouring the buffer.
    pub fn recv_any(&mut self) -> Result<Message, CommError> {
        if let Some(m) = self.buffered.pop_front() {
            return Ok(m);
        }
        self.inner.recv()
    }

    /// Non-blocking variant of [`recv_any`](Self::recv_any).
    pub fn try_recv_any(&mut self) -> Result<Option<Message>, CommError> {
        if let Some(m) = self.buffered.pop_front() {
            return Ok(Some(m));
        }
        self.inner.try_recv()
    }

    /// Receives the next message regardless of tag with a deadline,
    /// honouring the buffer.
    pub fn recv_any_timeout(&mut self, timeout: Duration) -> Result<Message, CommError> {
        if let Some(m) = self.buffered.pop_front() {
            return Ok(m);
        }
        self.inner.recv_timeout(timeout)
    }

    /// Blocks until a message is ready or `timeout` passes, without
    /// consuming it: the next [`try_recv_any`](Self::try_recv_any)
    /// returns it. An idle wait built on this never lets one message
    /// overtake earlier traffic, which a tag-selective wait would.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<(), CommError> {
        if self.buffered.is_empty() {
            let m = self.inner.recv_timeout(timeout)?;
            self.buffered.push_back(m);
        }
        Ok(())
    }

    /// Blocks until a message with tag `tag` arrives; other messages are
    /// buffered in arrival order.
    pub fn recv_tag(&mut self, tag: Tag) -> Result<Message, CommError> {
        if let Some(pos) = self.buffered.iter().position(|m| m.tag == tag) {
            return Ok(self.buffered.remove(pos).expect("position just found"));
        }
        loop {
            let m = self.inner.recv()?;
            if m.tag == tag {
                return Ok(m);
            }
            self.buffered.push_back(m);
        }
    }

    /// Like [`recv_tag`](Self::recv_tag) with a deadline. Buffered
    /// non-matching traffic is preserved even on timeout.
    pub fn recv_tag_timeout(&mut self, tag: Tag, timeout: Duration) -> Result<Message, CommError> {
        if let Some(pos) = self.buffered.iter().position(|m| m.tag == tag) {
            return Ok(self.buffered.remove(pos).expect("position just found"));
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(CommError::Timeout);
            }
            let m = self.inner.recv_timeout(left)?;
            if m.tag == tag {
                return Ok(m);
            }
            self.buffered.push_back(m);
            // Clamp to the deadline after buffering a non-matching
            // message: `recv_timeout` yields an already-queued message
            // even when `left` has effectively expired, so a flood of
            // wrong-tag traffic could otherwise stretch the wait one
            // message at a time without ever timing out.
            if Instant::now() >= deadline {
                return Err(CommError::Timeout);
            }
        }
    }

    /// Non-blocking tag-selective receive.
    pub fn try_recv_tag(&mut self, tag: Tag) -> Result<Option<Message>, CommError> {
        if let Some(pos) = self.buffered.iter().position(|m| m.tag == tag) {
            return Ok(Some(self.buffered.remove(pos).expect("position just found")));
        }
        loop {
            match self.inner.try_recv()? {
                None => return Ok(None),
                Some(m) if m.tag == tag => return Ok(Some(m)),
                Some(m) => self.buffered.push_back(m),
            }
        }
    }

    /// Number of messages parked in the reorder buffer.
    pub fn buffered_len(&self) -> usize {
        self.buffered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalWorld;
    use bytes::Bytes;

    fn pair() -> (Endpoint<crate::transport::LocalEndpoint>, Endpoint<crate::transport::LocalEndpoint>) {
        let mut world = LocalWorld::create(2);
        let b = Endpoint::new(world.pop().unwrap());
        let a = Endpoint::new(world.pop().unwrap());
        (a, b)
    }

    #[test]
    fn recv_tag_skips_and_buffers_others() {
        let (a, mut b) = pair();
        a.send(1, 10, Bytes::from_static(b"ten")).unwrap();
        a.send(1, 20, Bytes::from_static(b"twenty")).unwrap();
        a.send(1, 10, Bytes::from_static(b"ten2")).unwrap();

        let m = b.recv_tag(20).unwrap();
        assert_eq!(&m.payload[..], b"twenty");
        assert_eq!(b.buffered_len(), 1);
        // Buffered tag-10 message is returned first, preserving order.
        assert_eq!(&b.recv_tag(10).unwrap().payload[..], b"ten");
        assert_eq!(&b.recv_tag(10).unwrap().payload[..], b"ten2");
        assert_eq!(b.buffered_len(), 0);
    }

    #[test]
    fn recv_any_drains_buffer_first() {
        let (a, mut b) = pair();
        a.send(1, 1, Bytes::from_static(b"one")).unwrap();
        a.send(1, 2, Bytes::from_static(b"two")).unwrap();
        let _ = b.recv_tag(2).unwrap();
        // tag-1 message was buffered; recv_any must yield it.
        assert_eq!(&b.recv_any().unwrap().payload[..], b"one");
    }

    #[test]
    fn try_recv_tag_returns_none_without_traffic() {
        let (_a, mut b) = pair();
        assert_eq!(b.try_recv_tag(5).unwrap(), None);
    }

    #[test]
    fn try_recv_tag_finds_match_among_noise() {
        let (a, mut b) = pair();
        a.send(1, 1, Bytes::from_static(b"noise")).unwrap();
        a.send(1, 9, Bytes::from_static(b"match")).unwrap();
        let m = b.try_recv_tag(9).unwrap().unwrap();
        assert_eq!(&m.payload[..], b"match");
        assert_eq!(b.buffered_len(), 1);
    }

    #[test]
    fn recv_tag_timeout_is_clamped_under_wrong_tag_flood() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let (a, mut b) = pair();
        // Pre-queue a burst and keep flooding from another thread so a
        // wrong-tag message is almost always immediately available.
        for _ in 0..10_000 {
            a.send(1, 1, Bytes::new()).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let flooder = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                if a.send(1, 1, Bytes::new()).is_err() {
                    break;
                }
            }
        });

        let timeout = Duration::from_millis(25);
        let started = Instant::now();
        let err = b.recv_tag_timeout(99, timeout).unwrap_err();
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        flooder.join().unwrap();

        assert_eq!(err, CommError::Timeout);
        // Overshoot is bounded by one message, not by the flood length.
        assert!(
            elapsed < timeout + Duration::from_millis(100),
            "starved past the deadline: waited {elapsed:?} for a {timeout:?} timeout"
        );
        // Wrong-tag traffic was buffered, not dropped.
        assert!(b.buffered_len() > 0);
    }

    #[test]
    fn recv_any_timeout_drains_buffer_first_then_times_out() {
        let (a, mut b) = pair();
        a.send(1, 1, Bytes::from_static(b"one")).unwrap();
        a.send(1, 2, Bytes::from_static(b"two")).unwrap();
        let _ = b.recv_tag(2).unwrap();
        // tag-1 was buffered; recv_any_timeout must yield it without waiting.
        let m = b.recv_any_timeout(Duration::from_millis(5)).unwrap();
        assert_eq!(&m.payload[..], b"one");
        assert_eq!(
            b.recv_any_timeout(Duration::from_millis(5)).unwrap_err(),
            CommError::Timeout
        );
    }

    #[test]
    fn wait_timeout_keeps_arrival_order() {
        let (a, mut b) = pair();
        assert_eq!(
            b.wait_timeout(Duration::from_millis(5)).unwrap_err(),
            CommError::Timeout
        );
        a.send(1, 1, Bytes::from_static(b"first")).unwrap();
        a.send(1, 2, Bytes::from_static(b"second")).unwrap();
        b.wait_timeout(Duration::from_secs(5)).unwrap();
        b.wait_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(b.buffered_len(), 1, "a wait holds at most one message");
        assert_eq!(&b.try_recv_any().unwrap().unwrap().payload[..], b"first");
        assert_eq!(&b.try_recv_any().unwrap().unwrap().payload[..], b"second");
    }

    #[test]
    fn recv_tag_timeout_preserves_buffer() {
        let (a, mut b) = pair();
        a.send(1, 1, Bytes::from_static(b"keep")).unwrap();
        let err = b
            .recv_tag_timeout(99, Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, CommError::Timeout);
        assert_eq!(b.buffered_len(), 1);
        assert_eq!(&b.recv_tag(1).unwrap().payload[..], b"keep");
    }
}
