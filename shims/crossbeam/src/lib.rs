//! Offline shim for `crossbeam` (the subset this workspace uses).
//!
//! Provides [`channel::unbounded`] with crossbeam's semantics as used by
//! the sp2 message-passing runtime: cloneable [`channel::Sender`] *and*
//! cloneable [`channel::Receiver`] (multi-producer, multi-consumer),
//! blocking `recv` that fails once every sender is gone and the queue is
//! drained, and `send` that fails once every receiver is gone. Built on
//! `std::sync::{Mutex, Condvar}` — throughput is far below real
//! crossbeam's, which is irrelevant for sp2's rank-per-thread runtime,
//! its only user, which uses it as a mailbox. (The spasm simulator needs
//! no channels: its shards poll the processors' bodies directly.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    /// Carries the unsent message, like crossbeam's.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    /// The sending half of a channel. Cloning adds a producer.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Cloning adds a consumer; every
    /// message is delivered to exactly one consumer.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            ready: Condvar::new(),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`, waking one blocked receiver.
        ///
        /// # Errors
        ///
        /// Fails (returning the message) if every receiver has been
        /// dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            st.queue.push_back(msg);
            drop(st);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).senders += 1;
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                // Wake all blocked receivers so they observe disconnection.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues the next message, blocking while the channel is empty.
        ///
        /// # Errors
        ///
        /// Fails once the channel is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.ready.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Dequeues the next message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.queue.pop_front().ok_or(RecvError)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).receivers += 1;
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError};

    #[test]
    fn fifo_single_thread() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = unbounded::<i32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded::<i32>();
        let rx2 = rx.clone();
        drop(rx);
        tx.send(1).unwrap(); // rx2 still alive
        drop(rx2);
        assert!(tx.send(2).is_err());
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(99u32).unwrap();
        assert_eq!(h.join().unwrap(), 99);
    }

    #[test]
    fn mpmc_delivers_each_message_once() {
        let (tx, rx) = unbounded::<u64>();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        drop(rx);
        for i in 1..=1000u64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: u64 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1000 * 1001 / 2);
    }
}
