//! Stored procedures (paper §5).
//!
//! Sprocs are the CE's user-facing programming model: a named procedure,
//! registered once ("precompiled into a shared library"), invoked many
//! times with request bytes. The body is ordinary async Rust over the
//! runtime — it reads files, invokes DP kernels, and sends responses,
//! exactly as Figure 6 sketches in pseudocode.

use std::cell::RefCell;
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use bytes::Bytes;

/// Errors from sproc dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SprocError {
    /// No sproc registered under that name.
    Unknown(String),
    /// A name was registered twice.
    Duplicate(String),
}

impl std::fmt::Display for SprocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SprocError::Unknown(n) => write!(f, "unknown sproc '{n}'"),
            SprocError::Duplicate(n) => write!(f, "sproc '{n}' already registered"),
        }
    }
}

impl std::error::Error for SprocError {}

type SprocFuture = Pin<Box<dyn Future<Output = Bytes>>>;
type SprocFn = Rc<dyn Fn(Bytes) -> SprocFuture>;

/// A name → procedure registry.
#[derive(Default)]
pub struct SprocRegistry {
    sprocs: RefCell<HashMap<String, SprocFn>>,
}

impl SprocRegistry {
    /// Empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a sproc under `name`. The closure typically captures an
    /// `Rc<Dpdpu>` and whatever engine handles it needs.
    pub(crate) fn register<F, Fut>(&self, name: &str, f: F) -> Result<(), SprocError>
    where
        F: Fn(Bytes) -> Fut + 'static,
        Fut: Future<Output = Bytes> + 'static,
    {
        let mut sprocs = self.sprocs.borrow_mut();
        if sprocs.contains_key(name) {
            return Err(SprocError::Duplicate(name.to_string()));
        }
        sprocs.insert(name.to_string(), Rc::new(move |arg| Box::pin(f(arg))));
        Ok(())
    }

    /// Invokes a registered sproc with request bytes.
    pub async fn invoke(&self, name: &str, arg: Bytes) -> Result<Bytes, SprocError> {
        let sproc = self
            .sprocs
            .borrow()
            .get(name)
            .cloned()
            .ok_or_else(|| SprocError::Unknown(name.to_string()))?;
        Ok(sproc(arg).await)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;

    #[test]
    fn register_and_invoke() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let reg = SprocRegistry::new();
            reg.register("echo", |arg: Bytes| async move { arg })
                .unwrap();
            reg.register("len", |arg: Bytes| async move {
                Bytes::from(arg.len().to_le_bytes().to_vec())
            })
            .unwrap();
            let out = reg
                .invoke("echo", Bytes::from_static(b"ping"))
                .await
                .unwrap();
            assert_eq!(out, Bytes::from_static(b"ping"));
            let out = reg
                .invoke("len", Bytes::from_static(b"four"))
                .await
                .unwrap();
            assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), 4);
        });
        sim.run();
    }

    #[test]
    fn duplicate_and_unknown_errors() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let reg = SprocRegistry::new();
            reg.register("p", |a: Bytes| async move { a }).unwrap();
            assert_eq!(
                reg.register("p", |a: Bytes| async move { a }).unwrap_err(),
                SprocError::Duplicate("p".to_string())
            );
            assert_eq!(
                reg.invoke("ghost", Bytes::new()).await.unwrap_err(),
                SprocError::Unknown("ghost".to_string())
            );
        });
        sim.run();
    }

    #[test]
    fn sprocs_can_await_virtual_time() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let reg = SprocRegistry::new();
            reg.register("slow", |a: Bytes| async move {
                dpdpu_des::sleep(1_000).await;
                a
            })
            .unwrap();
            let t0 = dpdpu_des::now();
            reg.invoke("slow", Bytes::new()).await.unwrap();
            assert_eq!(dpdpu_des::now() - t0, 1_000);
        });
        sim.run();
    }
}
