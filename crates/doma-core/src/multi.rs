//! Multi-object schedules: interleaved request sequences over a catalog
//! of objects. The paper analyzes one object (§3.1 "we address the
//! allocation of a single object"); in its cost model objects are
//! independent, so a multi-object schedule's cost is the sum of its
//! per-object projections — which is exactly what
//! [`MultiSchedule::per_object`] produces.

use crate::{ObjectId, Request, Schedule};
use std::collections::BTreeMap;

/// One request against one object of the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiRequest {
    /// The object accessed.
    pub object: ObjectId,
    /// The read/write request.
    pub request: Request,
}

/// A finite interleaved sequence of multi-object requests.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiSchedule {
    requests: Vec<MultiRequest>,
}

impl MultiSchedule {
    /// Creates a schedule from a request sequence.
    pub fn from_requests(requests: Vec<MultiRequest>) -> Self {
        MultiSchedule { requests }
    }

    /// The request sequence.
    pub fn requests(&self) -> &[MultiRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Appends a request.
    pub fn push(&mut self, object: ObjectId, request: Request) {
        self.requests.push(MultiRequest { object, request });
    }

    /// Splits into per-object schedules (preserving per-object order),
    /// keyed by object — the paper's single-object analysis applies to
    /// each independently.
    pub fn per_object(&self) -> BTreeMap<ObjectId, Schedule> {
        let mut map: BTreeMap<ObjectId, Schedule> = BTreeMap::new();
        for r in &self.requests {
            map.entry(r.object).or_default().push(r.request);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_len_objects() {
        let mut s = MultiSchedule::default();
        assert!(s.is_empty());
        s.push(ObjectId(2), Request::read(1usize));
        s.push(ObjectId(1), Request::write(0usize));
        s.push(ObjectId(2), Request::write(3usize));
        assert_eq!(s.len(), 3);
        assert_eq!(s.requests()[1].object, ObjectId(1));
    }

    #[test]
    fn per_object_projection_preserves_order() {
        let mut s = MultiSchedule::default();
        s.push(ObjectId(7), Request::read(1usize));
        s.push(ObjectId(9), Request::write(2usize));
        s.push(ObjectId(7), Request::write(1usize));
        let per = s.per_object();
        assert_eq!(per[&ObjectId(7)].to_string(), "r1 w1");
        assert_eq!(per[&ObjectId(9)].to_string(), "w2");
    }

    #[test]
    fn from_requests_roundtrip() {
        let reqs = vec![MultiRequest {
            object: ObjectId(1),
            request: Request::read(0usize),
        }];
        let s = MultiSchedule::from_requests(reqs.clone());
        assert_eq!(s.requests(), reqs.as_slice());
    }
}
