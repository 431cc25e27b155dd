/* Native kernels of the "native" request-state engine.
 *
 * Every function operates on the flat TreeIndex layouts -- positional
 * double vectors for the mutable state (remaining / inreq / residual),
 * int64 span, depth and parent arrays for the structure.  A client's
 * ancestors are found by climbing the parent pointers, bottom-up:
 *   for (a = cpar[c]; a >= 0; a = npar[a])
 * (cpar: each client's parent node; npar: each node's parent, -1 at the
 * root), the order of TreeNetwork.ancestors.  The float
 * arithmetic mirrors the dict engine (repro/algorithms/common.py,
 * RequestState) operation for operation: same additions, in the same
 * order, with the same 1e-9 tolerances.  That is what keeps the two
 * engines bit-for-bit identical on every state field the equivalence
 * suite pins.
 *
 * Buffer conventions (checked only by size where cheap; the Python wrapper
 * in repro/algorithms/native_state.py owns the layout):
 *   - double vectors: array('d') / writable buffers of n_clients or n_nodes;
 *   - int64 vectors:  array('q') (client/node spans, depths, parent
 *     positions, repr ranks, orders);
 *   - replica flags:  a writable byte buffer of n_nodes;
 *   - the drain, cover and sweep kernels also write the state's replica
 *     set and amounts dict, keyed by the layout orders' ids (sink_t).
 *
 * Drains (drain, both first passes, the second pass, MG's sweep) take the
 * span's pending clients in (key, repr-rank) order and stop once the
 * server's budget is spent.  They heapify the candidates and pop them one
 * by one: (key, rank) is a total order, so the pops come out in exactly the
 * order a full sort would list them, and a drain that takes k of n
 * candidates costs O(n + k log n) instead of O(n log n).
 *
 * Compiled on first use by repro/algorithms/_native (gcc -O2 -shared); no
 * dependency beyond Python.h and libc.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>

static const double TOL = 1e-9;

/* ------------------------------------------------------------------ */
/* buffer plumbing                                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    Py_buffer view;
    int held;
} buf_t;

static int
get_buf(PyObject *obj, buf_t *buf, int writable, const char *name)
{
    int flags = writable ? PyBUF_WRITABLE : PyBUF_SIMPLE;
    if (PyObject_GetBuffer(obj, &buf->view, flags) != 0) {
        PyErr_Format(PyExc_TypeError, "kernel argument %s: bad buffer", name);
        buf->held = 0;
        return -1;
    }
    buf->held = 1;
    return 0;
}

static void
release_all(buf_t *bufs, int count)
{
    for (int i = 0; i < count; i++) {
        if (bufs[i].held) {
            PyBuffer_Release(&bufs[i].view);
            bufs[i].held = 0;
        }
    }
}

#define DBL(b) ((double *)(b).view.buf)
#define I64(b) ((int64_t *)(b).view.buf)
#define U8(b) ((unsigned char *)(b).view.buf)

/* ------------------------------------------------------------------ */
/* drain candidate selection                                           */
/* ------------------------------------------------------------------ */

typedef struct {
    double key;   /* sign * remaining (or MG's QoS depth gap), ascending */
    int64_t rank; /* unique (repr, position) rank: total tie order */
    int64_t pos;  /* client layout position */
} cand_t;

/* x before y in the drains' total order: key, then rank. */
static int
cand_before(const cand_t *x, const cand_t *y)
{
    return x->key < y->key || (x->key == y->key && x->rank < y->rank);
}

/* Restore the min-heap property below slot i of heap[0:n]. */
static void
heap_sift_down(cand_t *heap, int64_t n, int64_t i)
{
    cand_t item = heap[i];
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && cand_before(&heap[child + 1], &heap[child]))
            child++;
        if (!cand_before(&heap[child], &item))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = item;
}

static void
heapify(cand_t *heap, int64_t n)
{
    for (int64_t i = n / 2 - 1; i >= 0; i--)
        heap_sift_down(heap, n, i);
}

/* Remove the least candidate of heap[0:*n] and return its client position. */
static int64_t
heap_pop(cand_t *heap, int64_t *n)
{
    int64_t pos = heap[0].pos;
    *n -= 1;
    if (*n > 0) {
        heap[0] = heap[*n];
        heap_sift_down(heap, *n, 0);
    }
    return pos;
}

/* Serve `taken` clients from server position `si` in the dict engine's
 * serve order (RequestState._serve): per client, subtract from remaining
 * and climb the client's ancestors subtracting from inreq; then subtract
 * the grand total from the server's residual, once. */
static double
serve_taken(double *rem, double *inr, double *res,
            const int64_t *cpar, const int64_t *npar,
            int64_t si,
            const int64_t *taken_pos, const double *taken_amt, int64_t count)
{
    double total = 0.0;
    for (int64_t k = 0; k < count; k++) {
        int64_t p = taken_pos[k];
        double amount = taken_amt[k];
        rem[p] = rem[p] - amount;
        for (int64_t a = cpar[p]; a >= 0; a = npar[a])
            inr[a] -= amount;
        total += amount;
    }
    res[si] -= total;
    return total;
}

/* Candidate selection + budget walk of the dict engine's drain():
 * filter the span's pending (QoS-eligible) clients, then consume whole
 * clients in (sign * remaining, repr-rank) ascending order until the budget
 * runs out (optionally splitting the last one).  The order is a heap walk:
 * the candidates are heapified and popped one at a time, which yields the
 * decorate-sort's order without sorting the clients the budget never
 * reaches.  Fills taken_pos/taken_amt (caller-allocated, span-sized) and
 * returns the count; *drained_out receives the amount drained. */
static int64_t
drain_select(const double *rem, const int64_t *rrk,
             const int64_t *thr, int64_t depth,
             int64_t start, int64_t end,
             double budget, int largest_first, int split_last,
             int64_t *taken_pos, double *taken_amt, double *drained_out)
{
    int64_t span = end - start;
    *drained_out = 0.0;
    if (span <= 0)
        return 0;
    cand_t *cands = (cand_t *)malloc((size_t)span * sizeof(cand_t));
    if (cands == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    double sign = largest_first ? -1.0 : 1.0;
    int64_t ncand = 0;
    for (int64_t p = start; p < end; p++) {
        double v = rem[p];
        if (v > TOL && (thr == NULL || thr[p] <= depth)) {
            cands[ncand].key = sign * v;
            cands[ncand].rank = rrk[p];
            cands[ncand].pos = p;
            ncand++;
        }
    }
    heapify(cands, ncand);

    double drained = 0.0;
    int64_t count = 0;
    while (ncand > 0) {
        int64_t p = heap_pop(cands, &ncand);
        double pending = rem[p];
        if (pending <= budget + TOL) {
            taken_pos[count] = p;
            taken_amt[count] = pending;
            count++;
            budget -= pending;
            drained += pending;
            if (budget <= TOL)
                break;
        }
        else if (split_last) {
            taken_pos[count] = p;
            taken_amt[count] = budget;
            count++;
            drained += budget;
            budget = 0.0;
            break;
        }
        /* whole-client mode: a client larger than the remaining budget is
         * skipped (the next, smaller, candidate is tried). */
    }
    free(cands);
    *drained_out = drained;
    return count;
}

/* The Python-side bookkeeping the drain, cover and sweep kernels write
 * through: the state's replica set and (client, server) -> amount dict,
 * keyed by the ids of the index's layout orders. */
typedef struct {
    PyObject *replicas;     /* set */
    PyObject *amounts;      /* dict */
    PyObject *client_order; /* tuple: client layout position -> id */
    PyObject *node_order;   /* tuple: node layout position -> id */
} sink_t;

#define SINK_FORMAT "O!O!O!O!"
#define SINK_ARGS(k) &PySet_Type, &(k).replicas, &PyDict_Type, &(k).amounts, \
    &PyTuple_Type, &(k).client_order, &PyTuple_Type, &(k).node_order

/* Make node position i a replica: the flag vector and the id set. */
static int
sink_place(sink_t *sink, unsigned char *rep, int64_t i)
{
    rep[i] = 1;
    return PySet_Add(sink->replicas,
                     PyTuple_GET_ITEM(sink->node_order, (Py_ssize_t)i));
}

/* amounts[(client p, server si)] = amounts.get(key, 0.0) + amount, the
 * bookkeeping of every engine's assign(). */
static int
sink_amount(sink_t *sink, int64_t si, int64_t p, double amount)
{
    PyObject *key = PyTuple_Pack(
        2, PyTuple_GET_ITEM(sink->client_order, (Py_ssize_t)p),
        PyTuple_GET_ITEM(sink->node_order, (Py_ssize_t)si));
    if (key == NULL)
        return -1;
    double value = 0.0;
    PyObject *old = PyDict_GetItemWithError(sink->amounts, key); /* borrowed */
    if (old != NULL)
        value = PyFloat_AsDouble(old);
    if (PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    PyObject *total = PyFloat_FromDouble(value + amount);
    int rc = total == NULL ? -1 : PyDict_SetItem(sink->amounts, key, total);
    Py_XDECREF(total);
    Py_DECREF(key);
    return rc;
}

/* Record `count` served clients of server position si, in order. */
static int
sink_taken(sink_t *sink, int64_t si, const int64_t *taken_pos,
           const double *taken_amt, int64_t count)
{
    for (int64_t k = 0; k < count; k++)
        if (sink_amount(sink, si, taken_pos[k], taken_amt[k]) != 0)
            return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* module functions                                                    */
/* ------------------------------------------------------------------ */

/* assign(rem, inr, res, cpar, npar, ci, si, amount) */
static PyObject *
k_assign(PyObject *self, PyObject *args)
{
    PyObject *o_rem, *o_inr, *o_res, *o_cpar, *o_npar;
    long long ci, si;
    double amount;
    if (!PyArg_ParseTuple(args, "OOOOOLLd", &o_rem, &o_inr, &o_res, &o_cpar,
                          &o_npar, &ci, &si, &amount))
        return NULL;
    buf_t b[5] = {0};
    if (get_buf(o_rem, &b[0], 1, "rem") || get_buf(o_inr, &b[1], 1, "inr") ||
        get_buf(o_res, &b[2], 1, "res") || get_buf(o_cpar, &b[3], 0, "cpar") ||
        get_buf(o_npar, &b[4], 0, "npar")) {
        release_all(b, 5);
        return NULL;
    }
    double *rem = DBL(b[0]), *inr = DBL(b[1]), *res = DBL(b[2]);
    const int64_t *cpar = I64(b[3]), *npar = I64(b[4]);
    /* same order as the dict engine's assign(): remaining, residual,
     * then the ancestor walk */
    rem[ci] = rem[ci] - amount;
    res[si] -= amount;
    for (int64_t a = cpar[ci]; a >= 0; a = npar[a])
        inr[a] -= amount;
    release_all(b, 5);
    Py_RETURN_NONE;
}

/* total(rem) -> float : left-to-right sum, same as Python's sum(list) */
static PyObject *
k_total(PyObject *self, PyObject *args)
{
    PyObject *o_rem;
    if (!PyArg_ParseTuple(args, "O", &o_rem))
        return NULL;
    buf_t b[1] = {0};
    if (get_buf(o_rem, &b[0], 0, "rem"))
        return NULL;
    const double *rem = DBL(b[0]);
    int64_t n = (int64_t)(b[0].view.len / (Py_ssize_t)sizeof(double));
    double acc = 0.0;
    for (int64_t p = 0; p < n; p++)
        acc += rem[p];
    release_all(b, 1);
    return PyFloat_FromDouble(acc);
}

/* pending_ids(rem, start, end, thr_or_none, depth, order_tuple) -> [id, ...]
 * Identifiers of the span's pending (eligible) clients, in layout order. */
static PyObject *
k_pending_ids(PyObject *self, PyObject *args)
{
    PyObject *o_rem, *o_thr, *o_order;
    long long start, end, depth;
    if (!PyArg_ParseTuple(args, "OLLOLO!", &o_rem, &start, &end, &o_thr,
                          &depth, &PyTuple_Type, &o_order))
        return NULL;
    buf_t b[2] = {0};
    if (get_buf(o_rem, &b[0], 0, "rem"))
        return NULL;
    const int64_t *thr = NULL;
    if (o_thr != Py_None) {
        if (get_buf(o_thr, &b[1], 0, "thr")) {
            release_all(b, 2);
            return NULL;
        }
        thr = I64(b[1]);
    }
    const double *rem = DBL(b[0]);
    PyObject *list = PyList_New(0);
    if (list == NULL) {
        release_all(b, 2);
        return NULL;
    }
    for (int64_t p = start; p < end; p++) {
        if (rem[p] > TOL && (thr == NULL || thr[p] <= depth)) {
            PyObject *cid = PyTuple_GET_ITEM(o_order, (Py_ssize_t)p);
            if (PyList_Append(list, cid) != 0) {
                Py_DECREF(list);
                release_all(b, 2);
                return NULL;
            }
        }
    }
    release_all(b, 2);
    return list;
}

/* sum_eligible(rem, start, end, thr, depth) -> float */
static PyObject *
k_sum_eligible(PyObject *self, PyObject *args)
{
    PyObject *o_rem, *o_thr;
    long long start, end, depth;
    if (!PyArg_ParseTuple(args, "OLLOL", &o_rem, &start, &end, &o_thr, &depth))
        return NULL;
    buf_t b[2] = {0};
    if (get_buf(o_rem, &b[0], 0, "rem") || get_buf(o_thr, &b[1], 0, "thr")) {
        release_all(b, 2);
        return NULL;
    }
    const double *rem = DBL(b[0]);
    const int64_t *thr = I64(b[1]);
    /* sum(remaining[p] for eligible p): left-to-right like Python sum() */
    double acc = 0.0;
    for (int64_t p = start; p < end; p++)
        if (rem[p] > TOL && thr[p] <= depth)
            acc += rem[p];
    release_all(b, 2);
    return PyFloat_FromDouble(acc);
}

/* all_within_qos(rem, start, end, thr, depth) -> bool
 * True when every pending client of the span is QoS-eligible. */
static PyObject *
k_all_within_qos(PyObject *self, PyObject *args)
{
    PyObject *o_rem, *o_thr;
    long long start, end, depth;
    if (!PyArg_ParseTuple(args, "OLLOL", &o_rem, &start, &end, &o_thr, &depth))
        return NULL;
    buf_t b[2] = {0};
    if (get_buf(o_rem, &b[0], 0, "rem") || get_buf(o_thr, &b[1], 0, "thr")) {
        release_all(b, 2);
        return NULL;
    }
    const double *rem = DBL(b[0]);
    const int64_t *thr = I64(b[1]);
    int ok = 1;
    for (int64_t p = start; p < end; p++) {
        if (rem[p] > TOL && thr[p] > depth) {
            ok = 0;
            break;
        }
    }
    release_all(b, 2);
    if (ok)
        Py_RETURN_TRUE;
    Py_RETURN_FALSE;
}

/* drain(rem, inr, res, cpar, npar, rrk, thr_or_none, si, start, end, depth,
 *       budget, largest_first, split_last,
 *       replicas, amounts, client_order, node_order) -> drained */
static PyObject *
k_drain(PyObject *self, PyObject *args)
{
    PyObject *o_rem, *o_inr, *o_res, *o_cpar, *o_npar, *o_rrk, *o_thr;
    long long si, start, end, depth;
    double budget;
    int largest_first, split_last;
    sink_t sink;
    if (!PyArg_ParseTuple(args, "OOOOOOOLLLLdii" SINK_FORMAT, &o_rem, &o_inr,
                          &o_res, &o_cpar, &o_npar, &o_rrk, &o_thr, &si, &start,
                          &end, &depth, &budget, &largest_first, &split_last,
                          SINK_ARGS(sink)))
        return NULL;
    buf_t b[7] = {0};
    if (get_buf(o_rem, &b[0], 1, "rem") || get_buf(o_inr, &b[1], 1, "inr") ||
        get_buf(o_res, &b[2], 1, "res") || get_buf(o_cpar, &b[3], 0, "cpar") ||
        get_buf(o_npar, &b[4], 0, "npar") || get_buf(o_rrk, &b[5], 0, "rrk")) {
        release_all(b, 7);
        return NULL;
    }
    const int64_t *thr = NULL;
    if (o_thr != Py_None) {
        if (get_buf(o_thr, &b[6], 0, "thr")) {
            release_all(b, 7);
            return NULL;
        }
        thr = I64(b[6]);
    }
    double *rem = DBL(b[0]), *inr = DBL(b[1]), *res = DBL(b[2]);
    const int64_t *cpar = I64(b[3]), *npar = I64(b[4]), *rrk = I64(b[5]);

    int64_t span = end - start;
    int64_t *taken_pos = NULL;
    double *taken_amt = NULL;
    PyObject *result = NULL;
    if (span > 0) {
        taken_pos = (int64_t *)malloc((size_t)span * sizeof(int64_t));
        taken_amt = (double *)malloc((size_t)span * sizeof(double));
        if (taken_pos == NULL || taken_amt == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }
    double drained = 0.0;
    int64_t count = drain_select(rem, rrk, thr, depth, start, end, budget,
                                 largest_first, split_last, taken_pos,
                                 taken_amt, &drained);
    if (count < 0)
        goto done;
    if (count > 0)
        serve_taken(rem, inr, res, cpar, npar, si, taken_pos, taken_amt, count);
    if (sink_taken(&sink, si, taken_pos, taken_amt, count) != 0)
        goto done;
    result = PyFloat_FromDouble(drained);
done:
    free(taken_pos);
    free(taken_amt);
    release_all(b, 7);
    return result;
}

/* cover(rem, inr, res, cpar, npar, css, cse, thr_or_none, si, depth,
 *       replicas, amounts, client_order, node_order) -> covered
 * Serve every eligible pending client of subtree(si), in span order, with
 * serve_taken: the dict engine's cover(). */
static PyObject *
k_cover(PyObject *self, PyObject *args)
{
    PyObject *o_rem, *o_inr, *o_res, *o_cpar, *o_npar, *o_css, *o_cse, *o_thr;
    long long si, depth;
    sink_t sink;
    if (!PyArg_ParseTuple(args, "OOOOOOOOLL" SINK_FORMAT, &o_rem, &o_inr,
                          &o_res, &o_cpar, &o_npar, &o_css, &o_cse, &o_thr, &si,
                          &depth, SINK_ARGS(sink)))
        return NULL;
    buf_t b[8] = {0};
    if (get_buf(o_rem, &b[0], 1, "rem") || get_buf(o_inr, &b[1], 1, "inr") ||
        get_buf(o_res, &b[2], 1, "res") || get_buf(o_cpar, &b[3], 0, "cpar") ||
        get_buf(o_npar, &b[4], 0, "npar") || get_buf(o_css, &b[5], 0, "css") ||
        get_buf(o_cse, &b[6], 0, "cse")) {
        release_all(b, 8);
        return NULL;
    }
    const int64_t *thr = NULL;
    if (o_thr != Py_None) {
        if (get_buf(o_thr, &b[7], 0, "thr")) {
            release_all(b, 8);
            return NULL;
        }
        thr = I64(b[7]);
    }
    double *rem = DBL(b[0]), *inr = DBL(b[1]), *res = DBL(b[2]);
    const int64_t *cpar = I64(b[3]), *npar = I64(b[4]);
    const int64_t *css = I64(b[5]), *cse = I64(b[6]);

    int64_t start = css[si], end = cse[si];
    int64_t span = end - start;
    PyObject *result = NULL;
    int64_t *taken_pos = NULL;
    double *taken_amt = NULL;
    if (span > 0) {
        taken_pos = (int64_t *)malloc((size_t)span * sizeof(int64_t));
        taken_amt = (double *)malloc((size_t)span * sizeof(double));
        if (taken_pos == NULL || taken_amt == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }
    int64_t count = 0;
    for (int64_t p = start; p < end; p++) {
        if (rem[p] > TOL && (thr == NULL || thr[p] <= depth)) {
            taken_pos[count] = p;
            taken_amt[count] = rem[p];
            count++;
        }
    }
    double total = 0.0;
    if (count > 0)
        total = serve_taken(rem, inr, res, cpar, npar, si, taken_pos, taken_amt,
                            count);
    if (sink_taken(&sink, si, taken_pos, taken_amt, count) != 0)
        goto done;
    result = PyFloat_FromDouble(total);
done:
    free(taken_pos);
    free(taken_amt);
    release_all(b, 8);
    return result;
}

/* Shared body of the two draining sweep kernels: drain server position i
 * with `budget`, recording each assignment in the sink.  Returns 0 on
 * success, -1 on error. */
static int
sweep_drain(double *rem, double *inr, double *res,
            const int64_t *cpar, const int64_t *npar, const int64_t *rrk,
            const int64_t *thr, const int64_t *nd,
            const int64_t *css, const int64_t *cse,
            int64_t i, double budget, int largest_first, int split_last,
            int64_t *taken_pos, double *taken_amt, sink_t *sink)
{
    if (budget <= TOL)
        return 0;
    double drained = 0.0;
    int64_t count = drain_select(rem, rrk, thr, thr ? nd[i] : 0, css[i],
                                 cse[i], budget, largest_first, split_last,
                                 taken_pos, taken_amt, &drained);
    if (count < 0)
        return -1;
    if (count == 0)
        return 0;
    serve_taken(rem, inr, res, cpar, npar, i, taken_pos, taken_amt, count);
    return sink_taken(sink, i, taken_pos, taken_amt, count);
}

/* sweep_saturated(rem, inr, res, rep, cap, css, cse, cpar, npar, rrk,
 *                 thr_or_none, nd, order_or_none, largest_first, split_last,
 *                 replicas, amounts, client_order, node_order)
 * The UTD/MTD/MBU first pass: walk the nodes (pre-order when order is
 * None, else the given permutation, e.g. post-order), place a replica on
 * every node whose pending subtree load reaches its capacity, and drain
 * whole clients into it. */
static PyObject *
k_sweep_saturated(PyObject *self, PyObject *args)
{
    PyObject *o_rem, *o_inr, *o_res, *o_rep, *o_cap, *o_css, *o_cse, *o_cpar,
        *o_npar, *o_rrk, *o_thr, *o_nd, *o_order;
    int largest_first, split_last;
    sink_t sink;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOOii" SINK_FORMAT, &o_rem, &o_inr,
                          &o_res, &o_rep, &o_cap, &o_css, &o_cse, &o_cpar,
                          &o_npar, &o_rrk, &o_thr, &o_nd, &o_order,
                          &largest_first, &split_last, SINK_ARGS(sink)))
        return NULL;
    buf_t b[13] = {0};
    if (get_buf(o_rem, &b[0], 1, "rem") || get_buf(o_inr, &b[1], 1, "inr") ||
        get_buf(o_res, &b[2], 1, "res") || get_buf(o_rep, &b[3], 1, "rep") ||
        get_buf(o_cap, &b[4], 0, "cap") || get_buf(o_css, &b[5], 0, "css") ||
        get_buf(o_cse, &b[6], 0, "cse") || get_buf(o_cpar, &b[7], 0, "cpar") ||
        get_buf(o_npar, &b[8], 0, "npar") || get_buf(o_rrk, &b[9], 0, "rrk") ||
        get_buf(o_nd, &b[10], 0, "nd")) {
        release_all(b, 13);
        return NULL;
    }
    const int64_t *thr = NULL;
    if (o_thr != Py_None) {
        if (get_buf(o_thr, &b[11], 0, "thr")) {
            release_all(b, 13);
            return NULL;
        }
        thr = I64(b[11]);
    }
    const int64_t *order = NULL;
    if (o_order != Py_None) {
        if (get_buf(o_order, &b[12], 0, "order")) {
            release_all(b, 13);
            return NULL;
        }
        order = I64(b[12]);
    }
    double *rem = DBL(b[0]), *inr = DBL(b[1]), *res = DBL(b[2]);
    unsigned char *rep = U8(b[3]);
    const double *cap = DBL(b[4]);
    const int64_t *css = I64(b[5]), *cse = I64(b[6]);
    const int64_t *cpar = I64(b[7]), *npar = I64(b[8]), *rrk = I64(b[9]);
    const int64_t *nd = I64(b[10]);
    int64_t n_nodes = (int64_t)(b[4].view.len / (Py_ssize_t)sizeof(double));
    int64_t n_clients = (int64_t)(b[0].view.len / (Py_ssize_t)sizeof(double));

    PyObject *result = NULL;
    int64_t *taken_pos = NULL;
    double *taken_amt = NULL;
    if (n_clients > 0) {
        taken_pos = (int64_t *)malloc((size_t)n_clients * sizeof(int64_t));
        taken_amt = (double *)malloc((size_t)n_clients * sizeof(double));
        if (taken_pos == NULL || taken_amt == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }
    for (int64_t k = 0; k < n_nodes; k++) {
        int64_t i = order ? order[k] : k;
        double capacity = cap[i];
        if (inr[i] >= capacity - TOL && inr[i] > TOL) {
            if (sink_place(&sink, rep, i) != 0 ||
                sweep_drain(rem, inr, res, cpar, npar, rrk, thr, nd, css, cse,
                            i, capacity, largest_first, split_last, taken_pos,
                            taken_amt, &sink) != 0)
                goto done;
        }
    }
    Py_INCREF(Py_None);
    result = Py_None;
done:
    free(taken_pos);
    free(taken_amt);
    release_all(b, 13);
    return result;
}

/* sweep_second(rem, inr, res, rep, css, cse, nse, cpar, npar, rrk,
 *              thr_or_none, nd, largest_first, split_last,
 *              replicas, amounts, client_order, node_order)
 * The UTD/MTD/MBU second pass: top-down, place a replica on the highest
 * non-replica node that still sees pending requests and drain everything
 * it may serve; never descend below a fresh replica, skip subtrees with
 * nothing pending. */
static PyObject *
k_sweep_second(PyObject *self, PyObject *args)
{
    PyObject *o_rem, *o_inr, *o_res, *o_rep, *o_css, *o_cse, *o_nse, *o_cpar,
        *o_npar, *o_rrk, *o_thr, *o_nd;
    int largest_first, split_last;
    sink_t sink;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOii" SINK_FORMAT, &o_rem, &o_inr,
                          &o_res, &o_rep, &o_css, &o_cse, &o_nse, &o_cpar,
                          &o_npar, &o_rrk, &o_thr, &o_nd, &largest_first,
                          &split_last, SINK_ARGS(sink)))
        return NULL;
    buf_t b[12] = {0};
    if (get_buf(o_rem, &b[0], 1, "rem") || get_buf(o_inr, &b[1], 1, "inr") ||
        get_buf(o_res, &b[2], 1, "res") || get_buf(o_rep, &b[3], 1, "rep") ||
        get_buf(o_css, &b[4], 0, "css") || get_buf(o_cse, &b[5], 0, "cse") ||
        get_buf(o_nse, &b[6], 0, "nse") || get_buf(o_cpar, &b[7], 0, "cpar") ||
        get_buf(o_npar, &b[8], 0, "npar") || get_buf(o_rrk, &b[9], 0, "rrk") ||
        get_buf(o_nd, &b[10], 0, "nd")) {
        release_all(b, 12);
        return NULL;
    }
    const int64_t *thr = NULL;
    if (o_thr != Py_None) {
        if (get_buf(o_thr, &b[11], 0, "thr")) {
            release_all(b, 12);
            return NULL;
        }
        thr = I64(b[11]);
    }
    double *rem = DBL(b[0]), *inr = DBL(b[1]), *res = DBL(b[2]);
    unsigned char *rep = U8(b[3]);
    const int64_t *css = I64(b[4]), *cse = I64(b[5]), *nse = I64(b[6]);
    const int64_t *cpar = I64(b[7]), *npar = I64(b[8]), *rrk = I64(b[9]);
    const int64_t *nd = I64(b[10]);
    int64_t n_nodes = (int64_t)(b[6].view.len / (Py_ssize_t)sizeof(int64_t));
    int64_t n_clients = (int64_t)(b[0].view.len / (Py_ssize_t)sizeof(double));

    PyObject *result = NULL;
    int64_t *taken_pos = NULL;
    double *taken_amt = NULL;
    if (n_clients > 0) {
        taken_pos = (int64_t *)malloc((size_t)n_clients * sizeof(int64_t));
        taken_amt = (double *)malloc((size_t)n_clients * sizeof(double));
        if (taken_pos == NULL || taken_amt == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }
    /* The recursive pass visits the root unconditionally and only filters
     * *children* on pending load, so the root gets its own step: place
     * there if possible, otherwise scan descendants with the per-node
     * filter (a node's pending load is untouched by its earlier siblings'
     * drains, so testing on arrival equals the recursion's test). */
    int64_t i = n_nodes;
    if (n_nodes > 0) {
        if (!rep[0] && inr[0] > TOL) {
            if (sink_place(&sink, rep, 0) != 0 ||
                sweep_drain(rem, inr, res, cpar, npar, rrk, thr, nd, css, cse,
                            0, inr[0], largest_first, split_last, taken_pos,
                            taken_amt, &sink) != 0)
                goto done;
        }
        else {
            i = 1;
        }
    }
    while (i < n_nodes) {
        if (inr[i] <= TOL) {
            i = nse[i]; /* nothing pending below: skip the whole subtree */
            continue;
        }
        if (!rep[i]) {
            if (sink_place(&sink, rep, i) != 0 ||
                sweep_drain(rem, inr, res, cpar, npar, rrk, thr, nd, css, cse,
                            i, inr[i], largest_first, split_last, taken_pos,
                            taken_amt, &sink) != 0)
                goto done;
            i = nse[i]; /* never descend below a fresh replica */
        }
        else {
            i++; /* an old replica: keep searching below it */
        }
    }
    Py_INCREF(Py_None);
    result = Py_None;
done:
    free(taken_pos);
    free(taken_amt);
    release_all(b, 12);
    return result;
}

/* sweep_greedy(rem, inr, res, rep, cap, css, cse, cpar, npar, rrk,
 *              thr_or_none, nd, order,
 *              replicas, amounts, client_order, node_order)
 * MG's bottom-up saturating fold (RequestState.greedy_sweep): walk the
 * nodes in `order` (post-order); a node with capacity serves the eligible
 * pending clients of its span, ordered by (-remaining, repr-rank), or under
 * QoS by (depth - threshold, repr-rank) -- the number of eligible servers
 * above the node -- taking min(budget, remaining) from each with
 * assign()'s float order, and becomes a replica when it served anything.
 * Like drain_select, it pops a heap of the candidates until the budget is
 * spent. */
static PyObject *
k_sweep_greedy(PyObject *self, PyObject *args)
{
    PyObject *o_rem, *o_inr, *o_res, *o_rep, *o_cap, *o_css, *o_cse, *o_cpar,
        *o_npar, *o_rrk, *o_thr, *o_nd, *o_order;
    sink_t sink;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOO" SINK_FORMAT, &o_rem, &o_inr,
                          &o_res, &o_rep, &o_cap, &o_css, &o_cse, &o_cpar,
                          &o_npar, &o_rrk, &o_thr, &o_nd, &o_order,
                          SINK_ARGS(sink)))
        return NULL;
    buf_t b[13] = {0};
    if (get_buf(o_rem, &b[0], 1, "rem") || get_buf(o_inr, &b[1], 1, "inr") ||
        get_buf(o_res, &b[2], 1, "res") || get_buf(o_rep, &b[3], 1, "rep") ||
        get_buf(o_cap, &b[4], 0, "cap") || get_buf(o_css, &b[5], 0, "css") ||
        get_buf(o_cse, &b[6], 0, "cse") || get_buf(o_cpar, &b[7], 0, "cpar") ||
        get_buf(o_npar, &b[8], 0, "npar") || get_buf(o_rrk, &b[9], 0, "rrk") ||
        get_buf(o_nd, &b[10], 0, "nd") || get_buf(o_order, &b[12], 0, "order")) {
        release_all(b, 13);
        return NULL;
    }
    const int64_t *thr = NULL;
    if (o_thr != Py_None) {
        if (get_buf(o_thr, &b[11], 0, "thr")) {
            release_all(b, 13);
            return NULL;
        }
        thr = I64(b[11]);
    }
    double *rem = DBL(b[0]), *inr = DBL(b[1]), *res = DBL(b[2]);
    unsigned char *rep = U8(b[3]);
    const double *cap = DBL(b[4]);
    const int64_t *css = I64(b[5]), *cse = I64(b[6]);
    const int64_t *cpar = I64(b[7]), *npar = I64(b[8]), *rrk = I64(b[9]);
    const int64_t *nd = I64(b[10]), *order = I64(b[12]);
    int64_t n_order = (int64_t)(b[12].view.len / (Py_ssize_t)sizeof(int64_t));
    int64_t n_clients = (int64_t)(b[0].view.len / (Py_ssize_t)sizeof(double));

    PyObject *result = NULL;
    cand_t *cands = NULL;
    if (n_clients > 0) {
        cands = (cand_t *)malloc((size_t)n_clients * sizeof(cand_t));
        if (cands == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }
    for (int64_t k = 0; k < n_order; k++) {
        int64_t i = order[k];
        double budget = cap[i];
        if (budget <= TOL || inr[i] <= TOL)
            continue;
        int64_t depth = nd[i];
        int64_t ncand = 0;
        for (int64_t p = css[i]; p < cse[i]; p++) {
            double v = rem[p];
            if (v > TOL && (thr == NULL || thr[p] <= depth)) {
                cands[ncand].key = thr ? (double)(depth - thr[p]) : -v;
                cands[ncand].rank = rrk[p];
                cands[ncand].pos = p;
                ncand++;
            }
        }
        heapify(cands, ncand);
        int served_any = 0;
        while (ncand > 0 && budget > TOL) {
            int64_t p = heap_pop(cands, &ncand);
            double pending = rem[p];
            double take = pending < budget ? pending : budget; /* min() */
            if (take <= TOL)
                continue;
            rem[p] = rem[p] - take;
            res[i] -= take;
            for (int64_t a = cpar[p]; a >= 0; a = npar[a])
                inr[a] -= take;
            if (sink_amount(&sink, i, p, take) != 0)
                goto done;
            budget -= take;
            served_any = 1;
        }
        if (served_any && sink_place(&sink, rep, i) != 0)
            goto done;
    }
    Py_INCREF(Py_None);
    result = Py_None;
done:
    free(cands);
    release_all(b, 13);
    return result;
}

/* best_fit(res, nd, cpar, npar, ci, threshold, requests) -> int
 * Best-fit server position for a whole client (UBCF): climb the client's
 * ancestors bottom-up, keep the first minimal-residual ancestor that can
 * host all requests; stop at the QoS threshold (-1: no QoS).
 * Returns -1 when no ancestor qualifies. */
static PyObject *
k_best_fit(PyObject *self, PyObject *args)
{
    PyObject *o_res, *o_nd, *o_cpar, *o_npar;
    long long ci, threshold;
    double requests;
    if (!PyArg_ParseTuple(args, "OOOOLLd", &o_res, &o_nd, &o_cpar, &o_npar,
                          &ci, &threshold, &requests))
        return NULL;
    buf_t b[4] = {0};
    if (get_buf(o_res, &b[0], 0, "res") || get_buf(o_nd, &b[1], 0, "nd") ||
        get_buf(o_cpar, &b[2], 0, "cpar") || get_buf(o_npar, &b[3], 0, "npar")) {
        release_all(b, 4);
        return NULL;
    }
    const double *res = DBL(b[0]);
    const int64_t *nd = I64(b[1]);
    const int64_t *cpar = I64(b[2]), *npar = I64(b[3]);
    int64_t best = -1;
    for (int64_t a = cpar[ci]; a >= 0; a = npar[a]) {
        if (threshold >= 0 && nd[a] < threshold)
            break; /* monotone QoS: everything above is out of bound too */
        if (res[a] + TOL >= requests) {
            if (best < 0 || res[a] < res[best] - TOL)
                best = a;
        }
    }
    release_all(b, 4);
    return PyLong_FromLongLong((long long)best);
}

/* ------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"assign", k_assign, METH_VARARGS, "Affect requests of one client to a server."},
    {"total", k_total, METH_VARARGS, "Sum of a double vector, left to right."},
    {"pending_ids", k_pending_ids, METH_VARARGS, "Identifiers of pending (eligible) clients in a span."},
    {"sum_eligible", k_sum_eligible, METH_VARARGS, "Pending eligible requests of a span."},
    {"all_within_qos", k_all_within_qos, METH_VARARGS, "Whether every pending client of a span is QoS-eligible."},
    {"drain", k_drain, METH_VARARGS, "Whole-client drain of a subtree span into a server."},
    {"cover", k_cover, METH_VARARGS, "Serve every eligible pending client of a subtree."},
    {"sweep_saturated", k_sweep_saturated, METH_VARARGS, "Place+drain every saturated node (first pass)."},
    {"sweep_second", k_sweep_second, METH_VARARGS, "Top-down completion pass (second pass)."},
    {"sweep_greedy", k_sweep_greedy, METH_VARARGS, "MG's bottom-up saturating fold."},
    {"best_fit", k_best_fit, METH_VARARGS, "Best-fit ancestor for a whole client."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_repro_native",
    "Compiled kernels of the native request-state engine.",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__repro_native(void)
{
    return PyModule_Create(&kernel_module);
}
