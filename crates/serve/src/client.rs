//! A blocking client for the daemon socket.

use crate::protocol::{response_body, Query, ServeError};
use cord_obs::wire::{read_frame, write_frame};
use cord_obs::{wire, StreamEvent, StreamHeader};
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

/// Talks to a [`Daemon`](crate::Daemon) over its Unix socket.
#[derive(Debug, Clone)]
pub struct ServeClient {
    socket: PathBuf,
}

impl ServeClient {
    /// A client for the daemon at `socket`.
    pub fn new(socket: impl Into<PathBuf>) -> ServeClient {
        ServeClient {
            socket: socket.into(),
        }
    }

    fn connect(&self) -> Result<UnixStream, ServeError> {
        Ok(UnixStream::connect(&self.socket)?)
    }

    /// Streams a capture (the exact bytes of
    /// [`wire::encode_capture`]) to the daemon and drains the
    /// resulting report, returning its canonical bytes — the payload
    /// the byte-identity contract compares against inline
    /// [`SinkReport::to_bytes`](cord_core::SinkReport::to_bytes).
    ///
    /// A capture file is already the session's frame sequence (header
    /// frame, then event frames), so it goes over the socket verbatim.
    pub fn replay_capture(&self, capture: &[u8]) -> Result<Vec<u8>, ServeError> {
        let mut stream = self.connect()?;
        stream.write_all(capture)?;
        write_frame(&mut stream, &Query::Drain.encode())?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let payload = read_frame(&mut reader)?
            .ok_or_else(|| ServeError::Protocol("daemon closed before replying".into()))?;
        Ok(response_body(&payload)?.to_vec())
    }

    /// Streams header + events built in-process (no capture file) and
    /// drains the report bytes.
    pub fn replay_events(
        &self,
        header: &StreamHeader,
        events: &[StreamEvent],
    ) -> Result<Vec<u8>, ServeError> {
        self.replay_capture(&wire::encode_capture(header, events))
    }

    /// Sends one query on a fresh connection and parses the JSON
    /// response.
    pub fn query(&self, q: Query) -> Result<cord_json::Json, ServeError> {
        let mut stream = self.connect()?;
        write_frame(&mut stream, &q.encode())?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let payload = read_frame(&mut reader)?
            .ok_or_else(|| ServeError::Protocol("daemon closed before replying".into()))?;
        let body = response_body(&payload)?;
        let text = std::str::from_utf8(body)
            .map_err(|_| ServeError::Protocol("response is not UTF-8".into()))?;
        Ok(cord_json::Json::parse(text)?)
    }

    /// Asks the daemon to exit its serve loop.
    pub fn shutdown(&self) -> Result<(), ServeError> {
        self.query(Query::Shutdown).map(|_| ())
    }

    /// `true` once the daemon accepts connections; polls up to
    /// `attempts` times with a short sleep — for tests and smoke
    /// scripts that just spawned the process.
    pub fn wait_ready(&self, attempts: u32) -> bool {
        for _ in 0..attempts {
            if UnixStream::connect(&self.socket).is_ok() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        false
    }
}
