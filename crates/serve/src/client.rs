//! Client helpers for the serve protocol: open a transport, send one
//! request, stream the events back.

use crate::protocol::{Event, JobSpec, Request};
use crate::transport::Endpoint;

/// Sends one request and returns the single event it answers with
/// (`Status`, `Cancel`, `Shutdown`).
pub fn roundtrip(endpoint: &Endpoint, request: &Request) -> Result<Event, String> {
    let mut stream = endpoint.open(request)?;
    match stream.next_event() {
        Ok(Some(event)) => Ok(event),
        Ok(None) => Err("the daemon closed the connection without answering".into()),
        Err(e) => Err(format!("reading the daemon's answer: {e}")),
    }
}

/// Submits a job and streams its events, invoking `on_event` for each
/// non-terminal event (`Accepted`, `Progress`, `Heartbeat`). Returns
/// the terminal event (`Done`, `ShardDone`, `Cancelled`, `Rejected` or
/// `Failed`).
pub fn submit(
    endpoint: &Endpoint,
    spec: &JobSpec,
    mut on_event: impl FnMut(&Event),
) -> Result<Event, String> {
    let mut stream = endpoint.open(&Request::Submit(spec.clone()))?;
    loop {
        match stream.next_event() {
            Ok(Some(event)) if event.is_terminal() => return Ok(event),
            Ok(Some(event)) => on_event(&event),
            Ok(None) => return Err("the daemon hung up mid-job".into()),
            Err(e) => return Err(format!("reading the job stream: {e}")),
        }
    }
}
